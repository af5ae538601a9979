//! Binomial reduce-then-broadcast allreduce.
//!
//! Phase 1 folds all vectors onto rank 0 up a binomial tree (each rank
//! receives from higher partners, combining, until its round to send
//! arrives); phase 2 broadcasts the result back down the same tree.
//! 2·log₂(p) rounds with the full vector on every edge — simple, decent at
//! small sizes, dominated elsewhere; included because MPI libraries ship
//! it and a tuner must know when *not* to pick it.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks reducing `msg`-byte vectors.
pub fn schedule(p: u32, msg: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(p, msg, msg, msg, msg);
    sb.work_initialized_from_input();
    let rounds = if p <= 1 {
        0
    } else {
        32 - (p - 1).leading_zeros()
    };
    for r in 0..p {
        // Phase 1: reduce to rank 0. Rank r (> 0) sends in round
        // trailing_zeros(r); before that it receives and folds.
        let send_round = if r == 0 { rounds } else { r.trailing_zeros() };
        let mut pending = false;
        for k in 0..send_round {
            let bit = 1u32 << k;
            if r + bit < p {
                sb.step(r, |s| {
                    if pending {
                        s.combine(Region::aux(0, msg), Region::work(0, msg));
                    }
                    s.recv(r + bit, Region::aux(0, msg));
                });
                pending = true;
            }
        }
        if r != 0 {
            let bit = 1u32 << send_round;
            sb.step(r, |s| {
                if pending {
                    s.combine(Region::aux(0, msg), Region::work(0, msg));
                }
                s.send(r - bit, Region::work(0, msg));
            });
        } else if pending {
            sb.step(r, |s| s.combine(Region::aux(0, msg), Region::work(0, msg)));
        }
        // Phase 2: binomial broadcast of the reduced vector.
        for k in 0..rounds {
            let bit = 1u32 << k;
            if r < bit && r + bit < p {
                sb.step(r, |s| s.send(r + bit, Region::work(0, msg)));
            } else if r >= bit && r < bit << 1 {
                sb.step(r, |s| s.recv(r - bit, Region::work(0, msg)));
            }
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allreduce;

    #[test]
    fn correct_for_any_world_size() {
        for p in 1u32..=17 {
            check_allreduce(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn root_receives_and_rebroadcasts() {
        let p = 16u32;
        let msg = 64;
        let sch = schedule(p, msg);
        // Root sends log2(p) full vectors in the broadcast phase.
        assert_eq!(sch.messages_sent_by(0), 4);
        // The last rank sends once (reduce) and only receives in the
        // broadcast; rank 5 also forwards once in the broadcast.
        assert_eq!(sch.messages_sent_by(15), 1);
        assert_eq!(sch.messages_sent_by(5), 2);
    }
}
