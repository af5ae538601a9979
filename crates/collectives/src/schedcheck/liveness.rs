//! Backward liveness: which operations actually contribute to any rank's
//! final Work buffer.
//!
//! A byte of Work or Aux is *live* at a program point if the value it
//! holds there flows (through copies, reductions, or messages) into some
//! rank's Work buffer as it stands when the schedule finishes. The pass
//! walks the step graph's topological order in reverse — so a message's
//! receive side is processed before its send side — seeding every final
//! Work byte live and every final Aux byte dead. An operation none of
//! whose written (or sent) bytes are live is dead weight: the schedule
//! would produce identical output without it, which for a named algorithm
//! is a bug and for a synthesized candidate is wasted cost.
//!
//! Overwrites kill: a `Copy`/`Recv` destination stops being live below
//! the op (its old value is unobservable), while a `Combine` destination
//! stays live (the old value is read into the reduction).

use super::graph::MsgKey;
use super::{OpRef, Phase, StepRef};
use crate::schedule::{Buf, CommSchedule, Op, Region};
use std::collections::BTreeMap;

/// Per-rank liveness bitmaps for the two writable buffers.
#[derive(Debug)]
struct Live {
    work: Vec<bool>,
    aux: Vec<bool>,
}

impl Live {
    fn mask(&self, region: &Region) -> Vec<bool> {
        let buf = match region.buf {
            Buf::Work => &self.work,
            Buf::Aux => &self.aux,
            Buf::Input => return vec![false; region.len],
        };
        buf[region.offset..region.offset + region.len].to_vec()
    }

    fn clear(&mut self, region: &Region) {
        let buf = match region.buf {
            Buf::Work => &mut self.work,
            Buf::Aux => &mut self.aux,
            Buf::Input => return,
        };
        for b in &mut buf[region.offset..region.offset + region.len] {
            *b = false;
        }
    }

    /// Mark `region`'s byte k live wherever `mask[k]` is set. Reads from
    /// the Input buffer are sources — nothing to propagate.
    fn raise(&mut self, region: &Region, mask: &[bool]) {
        let buf = match region.buf {
            Buf::Work => &mut self.work,
            Buf::Aux => &mut self.aux,
            Buf::Input => return,
        };
        for (k, &m) in mask.iter().enumerate() {
            if m {
                buf[region.offset + k] = true;
            }
        }
    }
}

fn any(mask: &[bool]) -> bool {
    mask.iter().any(|&b| b)
}

/// The first (by rank, step, op position) operation that contributes no
/// byte to any rank's final Work buffer, if any.
pub(super) fn first_dead_op(s: &CommSchedule, order: &[StepRef]) -> Option<OpRef> {
    let mut live: Vec<Live> = (0..s.world as usize)
        .map(|_| Live {
            work: vec![true; s.work_len],
            aux: vec![false; s.aux_len],
        })
        .collect();
    // Liveness of each message's payload, recorded at the receive side.
    let mut msg_mask: BTreeMap<MsgKey, Vec<bool>> = BTreeMap::new();
    let mut dead: Vec<OpRef> = Vec::new();
    for nref in order.iter().rev() {
        let rank = nref.rank;
        let r = rank as usize;
        let ops = &s.ranks[r][nref.step].ops;
        match nref.phase {
            Phase::Complete => {
                for op in ops.iter().rev() {
                    if let Op::Recv { from, tag, region } = op {
                        let mask = live[r].mask(region);
                        live[r].clear(region);
                        msg_mask.insert((*from, rank, *tag), mask);
                    }
                }
            }
            Phase::Post => {
                // Sends run after the local ops, so process them first in
                // the backward walk; a dead message is charged to its send.
                for (oi, op) in ops.iter().enumerate().rev() {
                    if let Op::Send { to, tag, region } = op {
                        match msg_mask.get(&(rank, *to, *tag)) {
                            Some(mask) if any(mask) => {
                                let mask = mask.clone();
                                live[r].raise(region, &mask);
                            }
                            _ => dead.push(OpRef {
                                rank,
                                step: nref.step,
                                op: oi,
                            }),
                        }
                    }
                }
                for (oi, op) in ops.iter().enumerate().rev() {
                    let at = OpRef {
                        rank,
                        step: nref.step,
                        op: oi,
                    };
                    match op {
                        Op::Copy { src, dst } => {
                            let mask = live[r].mask(dst);
                            live[r].clear(dst);
                            if any(&mask) {
                                live[r].raise(src, &mask);
                            } else {
                                dead.push(at);
                            }
                        }
                        Op::Combine { src, dst } => {
                            let mask = live[r].mask(dst);
                            if any(&mask) {
                                live[r].raise(src, &mask);
                            } else {
                                dead.push(at);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    dead.sort_unstable();
    dead.first().copied()
}
