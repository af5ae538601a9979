//! Schedule execution: [`sim`], the one executor the crate ships.
//!
//! [`sim`] moves no bytes: it prices the matched message graph
//! [`crate::schedcheck`] builds, in virtual time, for datagen, the app
//! proxies and the benchmark. That a schedule moves the *right* bytes is
//! [`crate::schedcheck`]'s static proof; the byte interpreter the crate's
//! tests compare against is the test-only `interp` module below.

pub mod sim;

pub use sim::SimResult;

#[cfg(test)]
pub(crate) mod interp {
    //! Sequential byte-accurate interpreter: the test oracle.
    //!
    //! Executes a [`CommSchedule`] on real byte buffers by cooperative
    //! round-robin: when a rank reaches a step it immediately runs the
    //! step's copies and posts its sends into a global mailbox keyed by
    //! `(src, dst, tag)`; the step then completes once every expected
    //! message has arrived. This mirrors the MPI semantics the schedules
    //! are written against; `crate::verify` compares every algorithm
    //! against it, and schedcheck's differential tests hold the static
    //! proof to it.

    use crate::schedule::{Buf, CommSchedule, Op, Region};
    use std::collections::HashMap;
    use std::fmt;

    /// Why the interpreter refused a schedule or its inputs. Schedules
    /// that pass [`CommSchedule::validate`] never produce these.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ExecError {
        /// Input buffer count doesn't match the schedule's world size.
        InputCount { expected: usize, got: usize },
        /// One rank's input buffer has the wrong length.
        InputLength {
            rank: usize,
            expected: usize,
            got: usize,
        },
        /// A message payload didn't match the length of its target region.
        PayloadMismatch {
            rank: u32,
            expected: usize,
            got: usize,
        },
        /// An op attempted to write into the read-only input buffer.
        ReadOnlyInputWrite { rank: u32 },
        /// Two in-flight messages carried the same (src, dst, tag).
        DuplicateMessage { src: u32, dst: u32, tag: u32 },
        /// No rank can make progress: the schedule receives a message
        /// nobody sends (which `validate` would have rejected) or its ranks
        /// wait on each other in a cycle.
        Deadlock,
        /// Execution completed but sent messages were never received.
        UnconsumedMessages { count: usize },
    }

    impl fmt::Display for ExecError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                ExecError::InputCount { expected, got } => write!(
                    f,
                    "need one input buffer per rank: expected {expected}, got {got}"
                ),
                ExecError::InputLength {
                    rank,
                    expected,
                    got,
                } => write!(
                    f,
                    "rank {rank} input has wrong length: expected {expected}, got {got}"
                ),
                ExecError::PayloadMismatch {
                    rank,
                    expected,
                    got,
                } => write!(
                    f,
                    "rank {rank}: payload/region length mismatch (region {expected}, payload {got})"
                ),
                ExecError::ReadOnlyInputWrite { rank } => {
                    write!(f, "rank {rank}: write into read-only input buffer")
                }
                ExecError::DuplicateMessage { src, dst, tag } => {
                    write!(f, "duplicate message ({src} -> {dst}, tag {tag})")
                }
                ExecError::Deadlock => {
                    write!(f, "schedule deadlocked: no rank can make progress")
                }
                ExecError::UnconsumedMessages { count } => {
                    write!(f, "{count} sent message(s) were never received")
                }
            }
        }
    }

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

        /// Overwrite `r` with `data`, or add `data` into it bytewise
        /// (wrapping) when `combine`.
        fn write(&mut self, r: &Region, data: &[u8], combine: bool) -> Result<(), ExecError> {
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
            let dst = &mut buf[r.offset..r.offset + data.len()];
            if combine {
                for (d, s) in dst.iter_mut().zip(data) {
                    *d = d.wrapping_add(*s);
                }
            } else {
                dst.copy_from_slice(data);
            }
            Ok(())
        }
    }

    /// Execute `schedule` with the given per-rank input buffers; returns
    /// each rank's `Work` buffer after completion.
    ///
    /// Fails with an [`ExecError`] if the inputs do not fit the schedule
    /// (count, buffer sizes) or if execution cannot make progress: a
    /// receive nobody sends to, which [`CommSchedule::validate`] would have
    /// rejected, or a wait cycle.
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
            for (program, state) in schedule.ranks.iter().zip(&mut ranks) {
                let Some(step) = program.get(state.step) else {
                    continue;
                };
                all_done = false;
                let me = state.rank;

                if !state.posted {
                    // Phase 1: copies and reductions, in order.
                    for op in &step.ops {
                        match op {
                            Op::Copy { src, dst } => state.write(dst, &state.read(src), false)?,
                            Op::Combine { src, dst } => state.write(dst, &state.read(src), true)?,
                            _ => {}
                        }
                    }
                    // Phase 2: post sends.
                    for op in &step.ops {
                        if let Op::Send { to, tag, region } = op {
                            if mail.insert((me, *to, *tag), state.read(region)).is_some() {
                                return Err(ExecError::DuplicateMessage {
                                    src: me,
                                    dst: *to,
                                    tag: *tag,
                                });
                            }
                        }
                    }
                    state.posted = true;
                    progressed = true;
                }

                // Phase 3: complete receives if everything has arrived.
                let ready = step.ops.iter().all(|op| match op {
                    Op::Recv { from, tag, .. } => mail.contains_key(&(*from, me, *tag)),
                    _ => true,
                });
                if ready {
                    for op in &step.ops {
                        if let Op::Recv { from, tag, region } = op {
                            // `ready` just saw every key, so none is missing.
                            let data = mail.remove(&(*from, me, *tag)).unwrap_or_default();
                            state.write(region, &data, false)?;
                        }
                    }
                    state.step += 1;
                    state.posted = false;
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
}
