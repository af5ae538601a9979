//! Sequential byte-accurate interpreter.
//!
//! Executes a [`CommSchedule`] on real byte buffers, single-threaded, by
//! cooperative round-robin: when a rank reaches a step it immediately runs
//! the step's copies and posts its sends into a global mailbox; the step
//! then completes once every expected message has arrived. This mirrors the
//! MPI semantics the schedules are written against and is the correctness
//! oracle for both the threaded executor and the virtual-time executor.

use crate::exec::ExecError;
use crate::schedule::{Buf, CommSchedule, Op, Region};
use std::collections::HashMap;

/// Per-rank buffer state during interpretation.
struct RankState {
    rank: u32,
    input: Vec<u8>,
    work: Vec<u8>,
    aux: Vec<u8>,
    /// Index of the next step to finish.
    step: usize,
    /// Whether the current step's copies/sends have already run.
    posted: bool,
}

impl RankState {
    fn read(&self, r: &Region) -> Vec<u8> {
        let buf = match r.buf {
            Buf::Input => &self.input,
            Buf::Work => &self.work,
            Buf::Aux => &self.aux,
        };
        buf[r.offset..r.end()].to_vec()
    }

    fn write(&mut self, r: &Region, data: &[u8]) -> Result<(), ExecError> {
        if data.len() != r.len {
            return Err(ExecError::PayloadMismatch {
                rank: self.rank,
                expected: r.len,
                got: data.len(),
            });
        }
        let buf = match r.buf {
            Buf::Input => return Err(ExecError::ReadOnlyInputWrite { rank: self.rank }),
            Buf::Work => &mut self.work,
            Buf::Aux => &mut self.aux,
        };
        buf[r.offset..r.offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn combine(&mut self, r: &Region, data: &[u8]) -> Result<(), ExecError> {
        if data.len() != r.len {
            return Err(ExecError::PayloadMismatch {
                rank: self.rank,
                expected: r.len,
                got: data.len(),
            });
        }
        let buf = match r.buf {
            Buf::Input => return Err(ExecError::ReadOnlyInputWrite { rank: self.rank }),
            Buf::Work => &mut self.work,
            Buf::Aux => &mut self.aux,
        };
        for (d, s) in buf[r.offset..r.offset + data.len()].iter_mut().zip(data) {
            *d = d.wrapping_add(*s);
        }
        Ok(())
    }
}

/// Execute `schedule` with the given per-rank input buffers; returns each
/// rank's `Work` buffer after completion.
///
/// Fails with an [`ExecError`] if the inputs do not fit the schedule
/// (count, buffer sizes) or if execution cannot make progress: a receive
/// nobody sends to, which
/// [`CommSchedule::validate`](crate::schedule::CommSchedule::validate)
/// would have rejected, or a wait cycle.
#[allow(clippy::needless_range_loop)] // ranks is indexed mutably at several sites
pub fn run(schedule: &CommSchedule, inputs: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, ExecError> {
    let world = schedule.world as usize;
    if inputs.len() != world {
        return Err(ExecError::InputCount {
            expected: world,
            got: inputs.len(),
        });
    }
    for (r, inp) in inputs.iter().enumerate() {
        if inp.len() != schedule.input_len {
            return Err(ExecError::InputLength {
                rank: r,
                expected: schedule.input_len,
                got: inp.len(),
            });
        }
    }

    let mut ranks: Vec<RankState> = inputs
        .iter()
        .enumerate()
        .map(|(r, inp)| {
            let mut work = vec![0u8; schedule.work_len];
            if schedule.work_initialized_from_input {
                work[..inp.len()].copy_from_slice(inp);
            }
            RankState {
                rank: r as u32,
                input: inp.clone(),
                work,
                aux: vec![0u8; schedule.aux_len],
                step: 0,
                posted: false,
            }
        })
        .collect();

    // Mailbox: (src, dst, tag) -> payload.
    let mut mail: HashMap<(u32, u32, u32), Vec<u8>> = HashMap::new();

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for rank in 0..world {
            let nsteps = schedule.ranks[rank].len();
            if ranks[rank].step >= nsteps {
                continue;
            }
            all_done = false;
            let step = &schedule.ranks[rank].ops_at(ranks[rank].step);

            if !ranks[rank].posted {
                // Phase 1: copies and reductions, in order.
                for op in step.iter() {
                    match op {
                        Op::Copy { src, dst } => {
                            let data = ranks[rank].read(src);
                            ranks[rank].write(dst, &data)?;
                        }
                        Op::Combine { src, dst } => {
                            let data = ranks[rank].read(src);
                            ranks[rank].combine(dst, &data)?;
                        }
                        _ => {}
                    }
                }
                // Phase 2: post sends.
                for op in step.iter() {
                    if let Op::Send { to, tag, region } = op {
                        let data = ranks[rank].read(region);
                        let key = (rank as u32, *to, *tag);
                        if mail.insert(key, data).is_some() {
                            return Err(ExecError::DuplicateMessage {
                                src: key.0,
                                dst: key.1,
                                tag: key.2,
                            });
                        }
                    }
                }
                ranks[rank].posted = true;
                progressed = true;
            }

            // Phase 3: complete receives if everything has arrived.
            let ready = step.iter().all(|op| match op {
                Op::Recv { from, tag, .. } => mail.contains_key(&(*from, rank as u32, *tag)),
                _ => true,
            });
            if ready {
                for op in step.iter() {
                    if let Op::Recv { from, tag, region } = op {
                        let Some(data) = mail.remove(&(*from, rank as u32, *tag)) else {
                            // `ready` just saw this key; its absence means the
                            // mailbox was corrupted, which is a deadlock in
                            // disguise.
                            return Err(ExecError::Deadlock);
                        };
                        ranks[rank].write(region, &data)?;
                    }
                }
                ranks[rank].step += 1;
                ranks[rank].posted = false;
                progressed = true;
            }
        }
        if all_done {
            break;
        }
        if !progressed {
            return Err(ExecError::Deadlock);
        }
    }
    if !mail.is_empty() {
        return Err(ExecError::UnconsumedMessages { count: mail.len() });
    }
    Ok(ranks.into_iter().map(|r| r.work).collect())
}

/// Helper so the hot loop above can borrow a step's ops without fighting
/// the borrow checker over `ranks`.
trait OpsAt {
    fn ops_at(&self, idx: usize) -> Vec<Op>;
}

impl OpsAt for Vec<crate::schedule::Step> {
    fn ops_at(&self, idx: usize) -> Vec<Op> {
        self[idx].ops.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Region, ScheduleBuilder};

    #[test]
    fn two_rank_exchange_moves_bytes() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, 2 * b, 0);
        for r in 0..2u32 {
            let peer = 1 - r;
            sb.step(r, |s| {
                s.copy(Region::input(0, b), Region::work(r as usize * b, b));
                s.send(peer, Region::input(0, b));
                s.recv(peer, Region::work(peer as usize * b, b));
            });
        }
        let sch = sb.finish();
        sch.validate().unwrap();
        let out = run(&sch, &[vec![0xAA; b], vec![0xBB; b]]).unwrap();
        assert_eq!(out[0], [[0xAA; 4], [0xBB; 4]].concat());
        assert_eq!(out[1], [[0xAA; 4], [0xBB; 4]].concat());
    }

    #[test]
    fn cross_step_matching_works() {
        // Rank 0 sends in its step 0; rank 1 receives in its step 1.
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, b);
        sb.step(0, |s| {
            s.send(1, Region::input(0, b));
            s.recv(1, Region::work(0, b));
        });
        sb.step(1, |s| s.send(0, Region::input(0, b)));
        sb.step(1, |s| s.recv(0, Region::work(0, b)));
        let sch = sb.finish();
        sch.validate().unwrap();
        let out = run(&sch, &[vec![1; b], vec![2; b]]).unwrap();
        assert_eq!(out[0], vec![2; b]);
        assert_eq!(out[1], vec![1; b]);
    }

    #[test]
    fn in_place_initialization_seeds_work() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(1, b, b, b, 0);
        sb.work_initialized_from_input();
        sb.step(0, |s| s.copy(Region::work(0, 0), Region::work(0, 0))); // dropped, empty program
        let sch = sb.finish();
        let out = run(&sch, &[vec![7; b]]).unwrap();
        assert_eq!(out[0], vec![7; b]);
    }

    #[test]
    fn missing_sender_reports_deadlock() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(1, |s| s.recv(0, Region::work(0, b)));
        let sch = sb.finish(); // invalid, but run() must still detect it
        let err = run(&sch, &[vec![0; b], vec![0; b]]).unwrap_err();
        assert_eq!(err, ExecError::Deadlock);
    }

    #[test]
    fn wrong_input_shape_is_reported() {
        let b = 4;
        let sb = ScheduleBuilder::new(2, b, b, b, 0);
        let sch = sb.finish();
        assert_eq!(
            run(&sch, &[vec![0; b]]).unwrap_err(),
            ExecError::InputCount {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            run(&sch, &[vec![0; b], vec![0; b + 1]]).unwrap_err(),
            ExecError::InputLength {
                rank: 1,
                expected: b,
                got: b + 1
            }
        );
    }

    #[test]
    fn unreceived_message_is_reported() {
        let b = 4;
        let mut sb = ScheduleBuilder::new(2, b, b, b, 0);
        sb.step(0, |s| s.send(1, Region::input(0, b)));
        let sch = sb.finish(); // invalid: rank 1 never receives
        let err = run(&sch, &[vec![0; b], vec![0; b]]).unwrap_err();
        assert_eq!(err, ExecError::UnconsumedMessages { count: 1 });
    }
}
