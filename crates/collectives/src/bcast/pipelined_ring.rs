//! Pipelined chain broadcast.
//!
//! The payload is cut into `SEGMENTS` pieces pushed down the rank chain
//! 0 → 1 → … → p−1; once the pipe fills, every link forwards a segment per
//! step, overlapping the hops. Latency is (p − 2 + S) segment-times rather
//! than binomial's log₂(p) payload-times — it wins for very large messages
//! on longer chains.
//!
//! Segment boundaries depend on `msg mod SEGMENTS`, so these schedules are
//! **not** unit-scale invariant.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Pipeline depth.
pub const SEGMENTS: usize = 8;

fn seg_off(msg: usize, i: usize) -> usize {
    let base = msg / SEGMENTS;
    let rem = msg % SEGMENTS;
    base * i + rem.min(i)
}

fn seg_range(msg: usize, i: usize) -> (usize, usize) {
    (seg_off(msg, i), seg_off(msg, i + 1) - seg_off(msg, i))
}

/// Build the schedule for `p` ranks and a `msg`-byte payload from rank 0.
pub fn schedule(p: u32, msg: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(p, msg, msg, msg, 0);
    for r in 0..p {
        if r == 0 {
            sb.step(r, |s| s.copy(Region::input(0, msg), Region::work(0, msg)));
            if p > 1 {
                for i in 0..SEGMENTS {
                    let (off, len) = seg_range(msg, i);
                    sb.step(r, |s| s.send(1, Region::work(off, len)));
                }
            }
        } else {
            // Middle links receive segment s while forwarding segment s−1;
            // a trailing step flushes the last segment.
            let forwards = r + 1 < p;
            for i in 0..SEGMENTS {
                let (off, len) = seg_range(msg, i);
                sb.step(r, |s| {
                    if forwards && i >= 1 {
                        let (poff, plen) = seg_range(msg, i - 1);
                        s.send(r + 1, Region::work(poff, plen));
                    }
                    s.recv(r - 1, Region::work(off, len));
                });
            }
            if forwards {
                let (off, len) = seg_range(msg, SEGMENTS - 1);
                sb.step(r, |s| s.send(r + 1, Region::work(off, len)));
            }
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_bcast;

    #[test]
    fn correct_for_any_world_size_and_ragged_sizes() {
        for p in 1u32..=10 {
            for msg in [1usize, 5, 8, 63, 256] {
                check_bcast(&schedule(p, msg), msg).unwrap();
            }
        }
    }

    #[test]
    fn middle_ranks_forward_everything() {
        let p = 6u32;
        let msg = 4096;
        let sch = schedule(p, msg);
        for r in 0..p - 1 {
            assert_eq!(sch.bytes_sent_by(r), msg, "rank {r}");
        }
        assert_eq!(sch.bytes_sent_by(p - 1), 0);
    }

    #[test]
    fn pipeline_depth_bounds_steps() {
        let sch = schedule(8, 1 << 16);
        // Middle ranks: SEGMENTS recv steps + 1 flush.
        assert_eq!(sch.ranks[3].len(), SEGMENTS + 1);
    }
}
