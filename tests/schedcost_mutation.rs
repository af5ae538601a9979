//! Mutation harness for schedcost: corrupt known-good `pml-sched/v1`
//! documents one defect at a time and check that static cost extraction
//! reports a typed [`CostError`] for each corruption class — and that no
//! corruption panics the analyzer. Mirrors `schedcheck_mutation.rs`, but
//! drives the document entry point the cost lane uses ([`doc_cost`]), so
//! the version gate and the layout check are exercised alongside the
//! structural and matching checks extraction shares with schedcheck.

use pml_mpi::collectives::schedcheck::{SchedError, ScheduleDoc};
use pml_mpi::collectives::schedcost::{doc_cost, CostError};
use pml_mpi::collectives::schedule::{CommSchedule, Op, Region};
use pml_mpi::collectives::{Algorithm, AllgatherAlgo, Collective, Step};
use pml_mpi::simnet::JobLayout;

const P: u32 = 4;
const B: usize = 8;

fn ring_doc() -> ScheduleDoc {
    ScheduleDoc::new(
        Collective::Allgather,
        B,
        Algorithm::Allgather(AllgatherAlgo::Ring)
            .schedule(P, B)
            .unwrap(),
    )
}

fn layout() -> JobLayout {
    JobLayout::new(2, P / 2)
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

#[test]
fn base_doc_costs_cleanly() {
    let poly = doc_cost(&ring_doc(), layout()).unwrap();
    assert!(poly.net_rounds + poly.shm_rounds > 0, "{poly}");
}

#[test]
fn wrong_version_is_a_typed_error() {
    let mut doc = ring_doc();
    doc.v = "pml-sched/v0".to_string();
    let err = doc_cost(&doc, layout()).unwrap_err();
    match err {
        CostError::Sched(SchedError::BadDocVersion { got }) => assert_eq!(got, "pml-sched/v0"),
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn version_gate_fires_before_the_body_is_touched() {
    // Corrupt both the version tag and the schedule body: the cheap
    // version check must win, so a wholly untrusted file is rejected
    // before any schedule analysis runs.
    let mut doc = ring_doc();
    doc.v = "garbage".to_string();
    doc.schedule.ranks.clear();
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::BadDocVersion { .. })),
        "{err:?}"
    );
}

#[test]
fn layout_world_disagreement_is_a_layout_mismatch() {
    let err = doc_cost(&ring_doc(), JobLayout::new(2, P)).unwrap_err();
    match err {
        CostError::LayoutMismatch {
            schedule_world,
            layout_world,
        } => {
            assert_eq!(schedule_world, P);
            assert_eq!(layout_world, 2 * P);
        }
        other => panic!("expected a layout mismatch, got {other:?}"),
    }
}

#[test]
fn dropped_recv_is_an_unmatched_send() {
    let mut doc = ring_doc();
    let (r, si, oi) = find_op(&doc.schedule, |op| matches!(op, Op::Recv { .. }));
    doc.schedule.ranks[r][si].ops.remove(oi);
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::UnmatchedSend { .. })),
        "{err:?}"
    );
}

#[test]
fn dropped_send_is_an_unmatched_recv() {
    let mut doc = ring_doc();
    let (r, si, oi) = find_op(&doc.schedule, |op| matches!(op, Op::Send { .. }));
    doc.schedule.ranks[r][si].ops.remove(oi);
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::UnmatchedRecv { .. })),
        "{err:?}"
    );
}

#[test]
fn self_send_is_a_bad_peer() {
    let mut doc = ring_doc();
    let (r, si, oi) = find_op(&doc.schedule, |op| matches!(op, Op::Send { .. }));
    if let Op::Send { to, .. } = &mut doc.schedule.ranks[r][si].ops[oi] {
        *to = r as u32;
    }
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::BadPeer { .. })),
        "{err:?}"
    );
}

#[test]
fn shrunk_recv_region_is_a_size_mismatch() {
    let mut doc = ring_doc();
    let (r, si, oi) = find_op(&doc.schedule, |op| matches!(op, Op::Recv { .. }));
    if let Op::Recv { region, .. } = &mut doc.schedule.ranks[r][si].ops[oi] {
        region.len -= 1;
    }
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(
            err,
            CostError::Sched(SchedError::MessageSizeMismatch { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn overflowing_region_is_out_of_bounds() {
    let mut doc = ring_doc();
    let (r, si, oi) = find_op(&doc.schedule, |op| matches!(op, Op::Copy { .. }));
    if let Op::Copy { dst, .. } = &mut doc.schedule.ranks[r][si].ops[oi] {
        dst.offset = usize::MAX - 2;
    }
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::RegionOutOfBounds { .. })),
        "{err:?}"
    );
}

#[test]
fn truncated_ranks_are_a_world_mismatch() {
    let mut doc = ring_doc();
    doc.schedule.ranks.pop();
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::WorldMismatch { .. })),
        "{err:?}"
    );
}

#[test]
fn wait_cycle_is_a_deadlock() {
    // Hand-built two-rank exchange where each rank waits before sending:
    // structurally sound and fully matched, so only the dependency-order
    // pass can reject it — cost extraction must not walk a cyclic graph.
    let mk = |peer: u32| {
        vec![
            Step {
                ops: vec![Op::Recv {
                    from: peer,
                    tag: 0,
                    region: Region::work(0, B),
                }],
            },
            Step {
                ops: vec![Op::Send {
                    to: peer,
                    tag: 0,
                    region: Region::input(0, B),
                }],
            },
        ]
    };
    let sch = CommSchedule {
        world: 2,
        block: B,
        input_len: B,
        work_len: B,
        aux_len: 0,
        work_initialized_from_input: false,
        ranks: vec![mk(1), mk(0)],
    };
    let doc = ScheduleDoc::new(Collective::Bcast, B, sch);
    let err = doc_cost(&doc, JobLayout::new(1, 2)).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::Deadlock { .. })),
        "{err:?}"
    );
}

#[test]
fn corrupted_version_survives_a_json_round_trip() {
    // The corruption arrives the way it would in the field: as bytes on
    // disk. Rewrite the version tag inside the serialized document and
    // check the reparsed doc is rejected with the typed error.
    let json = serde_json::to_string(&ring_doc()).unwrap();
    let bad = json.replace("pml-sched/v1", "pml-sched/v9");
    assert_ne!(json, bad, "fixture must embed the version tag");
    let doc: ScheduleDoc = serde_json::from_str(&bad).unwrap();
    let err = doc_cost(&doc, layout()).unwrap_err();
    assert!(
        matches!(err, CostError::Sched(SchedError::BadDocVersion { got }) if got == "pml-sched/v9"),
    );
}

#[test]
fn truncated_json_is_a_parse_error_not_a_panic() {
    let json = serde_json::to_string(&ring_doc()).unwrap();
    for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
        assert!(
            serde_json::from_str::<ScheduleDoc>(&json[..cut]).is_err(),
            "truncation at {cut} unexpectedly parsed"
        );
    }
}

#[test]
fn random_op_deletions_never_panic() {
    // Fuzz-flavored sweep: delete one op at every coordinate in turn.
    // Most deletions unbalance the message graph and must surface as a
    // typed error; deleting a pure-local op can leave a still-valid
    // schedule (extraction runs no spec check), and that is fine — the
    // property under test is that nothing panics.
    let base = ring_doc();
    let mut errors = 0usize;
    let mut total = 0usize;
    for (r, prog) in base.schedule.ranks.iter().enumerate() {
        for (si, step) in prog.iter().enumerate() {
            for oi in 0..step.ops.len() {
                let mut doc = base.clone();
                doc.schedule.ranks[r][si].ops.remove(oi);
                total += 1;
                if doc_cost(&doc, layout()).is_err() {
                    errors += 1;
                }
            }
        }
    }
    assert!(total > 0);
    assert!(
        errors * 2 > total,
        "only {errors}/{total} single-op deletions were rejected"
    );
}
