//! Forward abstract interpretation over the provenance domain.
//!
//! Steps are visited in the step graph's topological order. A **Post**
//! node runs the step's local copies/reductions in op order and then
//! snapshots every send's payload (sends read the post-copy, pre-recv
//! state — ring-style schedules depend on this). A **Complete** node
//! delivers the matched payload snapshots into the receive regions.
//!
//! The only intra-step nondeterminism the executors actually have is the
//! completion order of a step's receives, so the hazard check rejects
//! exactly that: two receives of one step writing overlapping bytes.

use super::domain::RankAbs;
use super::graph::MsgKey;
use super::{OpRef, Phase, SchedError, StepRef};
use crate::schedule::{CommSchedule, Op};
use std::collections::BTreeMap;

/// Reject steps where two receives write overlapping regions: their
/// completion order is unspecified, so the result would be racy.
pub(super) fn check_recv_overlap(s: &CommSchedule) -> Result<(), SchedError> {
    for (rank, prog) in s.ranks.iter().enumerate() {
        for (si, step) in prog.iter().enumerate() {
            let recvs: Vec<(usize, _)> = step
                .ops
                .iter()
                .enumerate()
                .filter_map(|(oi, op)| match op {
                    Op::Recv { region, .. } => Some((oi, *region)),
                    _ => None,
                })
                .collect();
            for (i, (oi_a, ra)) in recvs.iter().enumerate() {
                for (oi_b, rb) in recvs.iter().skip(i + 1) {
                    if ra.overlaps(rb) {
                        return Err(SchedError::RecvOverlap {
                            rank: rank as u32,
                            step: si,
                            first: *oi_a,
                            second: *oi_b,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Abstractly execute the schedule, returning each rank's final state.
/// Fails on any read of an uninitialized byte (including a `Combine`
/// destination — no registered algorithm reduces into zero-initialized
/// memory, and a synthesized one must not either).
pub(super) fn interpret(s: &CommSchedule, order: &[StepRef]) -> Result<Vec<RankAbs>, SchedError> {
    let mut states: Vec<RankAbs> = (0..s.world).map(|r| RankAbs::new(s, r)).collect();
    let mut payloads: BTreeMap<MsgKey, Vec<super::AbsByte>> = BTreeMap::new();
    for nref in order {
        let rank = nref.rank;
        let r = rank as usize;
        let ops = &s.ranks[r][nref.step].ops;
        match nref.phase {
            Phase::Post => {
                for (oi, op) in ops.iter().enumerate() {
                    let at = OpRef {
                        rank,
                        step: nref.step,
                        op: oi,
                    };
                    match op {
                        Op::Copy { src, dst } => {
                            let data = states[r].read(rank, src, at)?;
                            states[r].write(dst, data)?;
                        }
                        Op::Combine { src, dst } => {
                            let src_data = states[r].read(rank, src, at)?;
                            let dst_data = states[r].read(rank, dst, at)?;
                            let mut merged = Vec::with_capacity(src_data.len());
                            for (a, b) in dst_data.iter().zip(&src_data) {
                                match a.combine(b) {
                                    Some(v) => merged.push(v),
                                    None => {
                                        return Err(SchedError::Internal {
                                            what: "combine of bytes read as initialized",
                                        })
                                    }
                                }
                            }
                            states[r].write(dst, merged)?;
                        }
                        _ => {}
                    }
                }
                for (oi, op) in ops.iter().enumerate() {
                    if let Op::Send { to, tag, region } = op {
                        let at = OpRef {
                            rank,
                            step: nref.step,
                            op: oi,
                        };
                        let data = states[r].read(rank, region, at)?;
                        payloads.insert((rank, *to, *tag), data);
                    }
                }
            }
            Phase::Complete => {
                for op in ops {
                    if let Op::Recv { from, tag, region } = op {
                        let Some(data) = payloads.remove(&(*from, rank, *tag)) else {
                            return Err(SchedError::Internal {
                                what: "receive completed before its matched send posted",
                            });
                        };
                        states[r].write(region, data)?;
                    }
                }
            }
        }
    }
    Ok(states)
}
