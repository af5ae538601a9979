//! Ring allgather.
//!
//! Ranks form a logical ring; in each of the p−1 rounds every rank forwards
//! to its right neighbour the block it received in the previous round (its
//! own block first). Bandwidth-optimal (each rank sends exactly (p−1)·b
//! bytes) but latency-bound at small sizes: p−1 rounds.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks with `block`-byte contributions.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let mut sb = ScheduleBuilder::new(p, b, b, p as usize * b, 0);
    for r in 0..p {
        sb.step(r, |s| {
            s.copy(Region::input(0, b), Region::work(r as usize * b, b))
        });
        if p == 1 {
            continue;
        }
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        for k in 0..p - 1 {
            let send_blk = ((r + p - k) % p) as usize;
            let recv_blk = ((r + p - 1 - k) % p) as usize;
            sb.step(r, |s| {
                s.send(right, Region::work(send_blk * b, b));
                s.recv(left, Region::work(recv_blk * b, b));
            });
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allgather;

    #[test]
    fn correct_for_small_worlds() {
        for p in [1u32, 2, 3, 4, 5, 7, 8, 12, 16] {
            check_allgather(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn p_minus_1_rounds() {
        let sch = schedule(7, 8);
        assert_eq!(sch.ranks[3].len(), 7); // copy + 6 exchanges
    }

    #[test]
    fn bandwidth_optimal() {
        let p = 9u32;
        let b = 64usize;
        let sch = schedule(p, b);
        for r in 0..p {
            assert_eq!(sch.bytes_sent_by(r), (p as usize - 1) * b);
            assert_eq!(sch.messages_sent_by(r), p as usize - 1);
        }
    }
}
