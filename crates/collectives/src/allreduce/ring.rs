//! Ring allreduce (reduce-scatter + allgather) — the bandwidth-optimal
//! workhorse popularized by large-scale deep learning.
//!
//! The vector splits into p near-equal chunks. p−1 reduce-scatter steps
//! circulate partial sums until each rank owns one fully reduced chunk,
//! then p−1 allgather steps circulate the finished chunks. Every rank
//! sends ≈ 2·msg·(p−1)/p bytes regardless of p; 2(p−1) latency terms make
//! it a poor fit for tiny vectors.
//!
//! Chunk boundaries depend on `msg mod p`, so these schedules are **not**
//! unit-scale invariant.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

fn chunk_off(msg: usize, p: u32, i: u32) -> usize {
    let p = p as usize;
    let i = i as usize % (p + 1);
    let base = msg / p;
    let rem = msg % p;
    base * i + rem.min(i)
}

fn chunk_range(msg: usize, p: u32, c: u32) -> (usize, usize) {
    let c = c % p;
    let a = chunk_off(msg, p, c);
    let b = chunk_off(msg, p, c + 1);
    (a, b - a)
}

/// Build the schedule for `p` ranks reducing `msg`-byte vectors.
pub fn schedule(p: u32, msg: usize) -> CommSchedule {
    let max_chunk = msg.div_ceil(p.max(1) as usize);
    let mut sb = ScheduleBuilder::new(p, msg, msg, msg, max_chunk.max(1));
    sb.work_initialized_from_input();
    if p == 1 {
        return sb.finish();
    }
    for r in 0..p {
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        // Reduce-scatter: step k sends the running sum of chunk (r−k) and
        // receives chunk (r−k−1), folding it in at the start of the next
        // step (phase discipline: combines precede sends).
        let mut pending: Option<(usize, usize)> = None; // (work offset, len)
        for k in 0..p - 1 {
            let send_c = (r + p - k) % p;
            let recv_c = (r + p - 1 - k) % p;
            let (soff, slen) = chunk_range(msg, p, send_c);
            let (roff, rlen) = chunk_range(msg, p, recv_c);
            sb.step(r, |s| {
                if let Some((poff, plen)) = pending {
                    s.combine(Region::aux(0, plen), Region::work(poff, plen));
                }
                s.send(right, Region::work(soff, slen));
                s.recv(left, Region::aux(0, rlen));
            });
            pending = Some((roff, rlen));
        }
        // Allgather: step k sends finished chunk (r+1−k) and receives
        // chunk (r−k); the first step also folds the final partial.
        for k in 0..p - 1 {
            let send_c = (r + 1 + p - k) % p;
            let recv_c = (r + p - k) % p;
            let (soff, slen) = chunk_range(msg, p, send_c);
            let (roff, rlen) = chunk_range(msg, p, recv_c);
            sb.step(r, |s| {
                if let Some((poff, plen)) = pending.take() {
                    s.combine(Region::aux(0, plen), Region::work(poff, plen));
                }
                s.send(right, Region::work(soff, slen));
                s.recv(left, Region::work(roff, rlen));
            });
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allreduce;

    #[test]
    fn correct_for_any_world_size_and_ragged_sizes() {
        for p in 1u32..=12 {
            for msg in [1usize, 3, 16, 100] {
                check_allreduce(&schedule(p, msg), msg).unwrap();
            }
        }
    }

    #[test]
    fn bandwidth_is_two_msg_regardless_of_p() {
        let msg = 1200;
        for p in [4u32, 8, 12] {
            let sch = schedule(p, msg);
            let sent = sch.bytes_sent_by(0);
            let ideal = 2 * msg * (p as usize - 1) / p as usize;
            assert!(
                (sent as f64 - ideal as f64).abs() <= p as f64,
                "p={p}: sent {sent} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn two_p_minus_one_rounds() {
        let sch = schedule(6, 600);
        assert_eq!(sch.ranks[2].len(), 2 * 5);
    }
}
