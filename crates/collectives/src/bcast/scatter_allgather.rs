//! Scatter + allgather broadcast (the van de Geijn algorithm).
//!
//! The payload is split into p (near-)equal chunks; a binomial-tree
//! scatter delivers chunk i to rank i in ⌈log₂ p⌉ rounds moving only
//! msg/2 bytes per round at the root, then a ring allgather completes the
//! broadcast bandwidth-optimally. The large-message champion: every rank
//! sends ≈ msg·(p−1)/p + msg/2 bytes instead of binomial's full-payload
//! edges.
//!
//! Chunk boundaries depend on `msg mod p`, so these schedules are **not**
//! unit-scale invariant (see `Algorithm::scale_invariant`).

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Byte offset of chunk boundary `i` when `msg` bytes split into `p`
/// near-equal chunks (first `msg % p` chunks get the extra byte).
pub(crate) fn chunk_off(msg: usize, p: u32, i: u32) -> usize {
    let p = p as usize;
    let i = i as usize;
    let base = msg / p;
    let rem = msg % p;
    base * i + rem.min(i)
}

/// Byte range covering chunks `[lo, hi)`.
fn chunk_range(msg: usize, p: u32, lo: u32, hi: u32) -> (usize, usize) {
    let a = chunk_off(msg, p, lo);
    let b = chunk_off(msg, p, hi);
    (a, b - a)
}

/// Build the schedule for `p` ranks and a `msg`-byte payload from rank 0.
pub fn schedule(p: u32, msg: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(p, msg, msg, msg, 0);
    let rounds = if p <= 1 {
        0
    } else {
        32 - (p - 1).leading_zeros()
    };
    for r in 0..p {
        if r == 0 {
            sb.step(r, |s| s.copy(Region::input(0, msg), Region::work(0, msg)));
        }
        // Binomial scatter, high distance first: after receiving its chunk
        // range [r, r + 2^k_r), a rank halves and forwards the upper part.
        for k in (0..rounds).rev() {
            let bit = 1u32 << k;
            if r % (bit << 1) == 0 && r + bit < p {
                // Send chunks [r+bit, min(r+2bit, p)) to r+bit.
                let hi = (r + (bit << 1)).min(p);
                let (off, len) = chunk_range(msg, p, r + bit, hi);
                sb.step(r, |s| s.send(r + bit, Region::work(off, len)));
            } else if r % (bit << 1) == bit {
                let hi = (r + bit).min(p);
                let (off, len) = chunk_range(msg, p, r, hi);
                sb.step(r, |s| s.recv(r - bit, Region::work(off, len)));
            }
        }
        // Ring allgather over the chunks.
        if p > 1 {
            let right = (r + 1) % p;
            let left = (r + p - 1) % p;
            for k in 0..p - 1 {
                let send_chunk = (r + p - k) % p;
                let recv_chunk = (r + p - 1 - k) % p;
                let (soff, slen) = chunk_range(msg, p, send_chunk, send_chunk + 1);
                let (roff, rlen) = chunk_range(msg, p, recv_chunk, recv_chunk + 1);
                sb.step(r, |s| {
                    s.send(right, Region::work(soff, slen));
                    s.recv(left, Region::work(roff, rlen));
                });
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
        for p in 1u32..=13 {
            for msg in [1usize, 7, 64, 100] {
                check_bcast(&schedule(p, msg), msg).unwrap();
            }
        }
    }

    #[test]
    fn chunk_offsets_partition_the_payload() {
        let msg = 103;
        let p = 8;
        assert_eq!(chunk_off(msg, p, 0), 0);
        assert_eq!(chunk_off(msg, p, p), msg);
        for i in 0..p {
            assert!(chunk_off(msg, p, i) <= chunk_off(msg, p, i + 1));
        }
    }

    #[test]
    fn root_sends_less_than_binomial() {
        let p = 16u32;
        let msg = 1 << 20;
        let sag = schedule(p, msg);
        let bin = crate::bcast::binomial::schedule(p, msg);
        assert!(sag.bytes_sent_by(0) < bin.bytes_sent_by(0) / 2);
    }
}
