//! Scatter-Destination alltoall.
//!
//! Every rank posts p−1 direct sends (block j straight to rank j) and p−1
//! receives, then waits for all of them — one communication phase, maximal
//! concurrency. Bandwidth-optimal and latency-minimal per message, but it
//! floods the NIC with p−1 concurrent messages per rank, so at scale its
//! cost is dominated by injection overhead and NIC serialization — exactly
//! why the paper sees it lose on small messages and win on mid-size ones
//! when the fabric is fast (MRI's HDR).
//!
//! Sends are staggered as (r + k) mod p, k = 1..p — the classic rotation
//! that avoids every rank hammering rank 0 first.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks with `block`-byte blocks.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let pu = p as usize;
    let mut sb = ScheduleBuilder::new(p, b, pu * b, pu * b, 0);
    for r in 0..p {
        sb.step(r, |s| {
            s.copy(
                Region::input(r as usize * b, b),
                Region::work(r as usize * b, b),
            );
            for k in 1..p {
                let dst = (r + k) % p;
                s.send(dst, Region::input(dst as usize * b, b));
            }
            for k in 1..p {
                let src = (r + p - k) % p;
                s.recv(src, Region::work(src as usize * b, b));
            }
        });
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_alltoall;

    #[test]
    fn correct_for_any_world_size() {
        for p in 1u32..=12 {
            check_alltoall(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn single_phase() {
        let sch = schedule(9, 8);
        assert_eq!(sch.max_steps(), 1);
    }

    #[test]
    fn p_minus_1_messages_per_rank() {
        let p = 10u32;
        let sch = schedule(p, 16);
        for r in 0..p {
            assert_eq!(sch.messages_sent_by(r), p as usize - 1);
            assert_eq!(sch.bytes_sent_by(r), (p as usize - 1) * 16);
        }
    }
}
