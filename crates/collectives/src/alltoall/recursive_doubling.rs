//! Recursive-Doubling (hypercube) alltoall.
//!
//! log₂(p) rounds over a hypercube: in round k every rank exchanges with
//! partner `r XOR 2ᵏ` the p/2 blocks whose *destination* disagrees with r
//! in bit k. Each block is forwarded through intermediate ranks, so the
//! total traffic is (p/2)·log₂(p) blocks per rank — more than the p−1 of
//! Pairwise/Scatter-Dest — but in only log₂(p) messages: the classic
//! small-message/large-message trade. Power-of-two worlds only.
//!
//! ## Layout invariant
//!
//! At the start of round k (mask = 2ᵏ−1), rank r holds exactly the blocks
//! `(o, d)` with `o ≡ r (mod high bits ≥ k)` and `d ≡ r (mod low bits < k)`;
//! block `(o, d)` sits in Work slot `(d & !mask) | (o & mask)`. Kept blocks
//! never move under the next round's mask, received blocks are unpacked by
//! the same formula, and after the last round slot(o, r) = o — the buffer
//! finishes in origin order with no extra permutation. Both sides of an
//! exchange enumerate the transferred set in the same canonical (d, o)
//! order, so the packed buffer needs no header.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// The blocks rank `q` sends in round k (bit = 2ᵏ), in canonical (d, o)
/// order, as (origin, dest) pairs.
fn send_set(q: u32, bit: u32, p: u32) -> impl Iterator<Item = (u32, u32)> {
    let mask = bit - 1;
    let k = bit.trailing_zeros();
    // d = (q & mask) | (c << k) with bit k of d ≠ bit k of q; c enumerates
    // the free high bits (LSB of c is d's bit k).
    let d_low = q & mask;
    let q_bit = (q >> k) & 1;
    let o_high = q & !mask;
    (0..(p >> k))
        .filter(move |c| (c & 1) != q_bit)
        .flat_map(move |c| {
            (0..bit).map(move |a| {
                let o = o_high | a;
                let d = d_low | (c << k);
                (o, d)
            })
        })
}

/// Work slot of block (o, d) under round mask.
fn slot(o: u32, d: u32, mask: u32) -> usize {
    ((d & !mask) | (o & mask)) as usize
}

/// Build the schedule for `p` ranks with `block`-byte blocks.
///
/// Needs a power-of-two world size, which `Algorithm::schedule` checks
/// before it calls here.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let pu = p as usize;
    let half = pu / 2;
    // Aux: [0..half·b) send staging, [half·b..2·half·b) receive staging.
    let mut sb = ScheduleBuilder::new(p, b, pu * b, pu * b, (2 * half).max(1) * b);

    // Initial layout: slot(r, d, 0) = d, i.e. Work = Input verbatim.
    for r in 0..p {
        sb.step(r, |s| {
            s.copy(Region::input(0, pu * b), Region::work(0, pu * b))
        });
    }

    let mut k = 0u32;
    while (1u32 << k) < p {
        let bit = 1u32 << k;
        let mask = bit - 1;
        let mask2 = (bit << 1) - 1;
        let prev_bit = bit >> 1;
        for r in 0..p {
            let partner = r ^ bit;
            sb.step(r, |s| {
                // Unpack the previous round's arrivals into their slots
                // under this round's mask (no-op in round 0).
                if k > 0 {
                    for (i, (o, d)) in send_set(r ^ prev_bit, prev_bit, p).enumerate() {
                        s.copy(
                            Region::aux((half + i) * b, b),
                            Region::work(slot(o, d, mask) * b, b),
                        );
                    }
                }
                // Pack this round's outgoing blocks in canonical order.
                let mut m = 0usize;
                for (i, (o, d)) in send_set(r, bit, p).enumerate() {
                    s.copy(Region::work(slot(o, d, mask) * b, b), Region::aux(i * b, b));
                    m += 1;
                }
                s.send(partner, Region::aux(0, m * b));
                s.recv(partner, Region::aux(half * b, m * b));
            });
        }
        let _ = mask2;
        k += 1;
    }

    // Final step: unpack the last round. With the full mask, slot(o, r) = o,
    // so the buffer is already in origin order once unpacked.
    if p > 1 {
        let last_bit = p >> 1;
        let full_mask = p - 1;
        for r in 0..p {
            sb.step(r, |s| {
                for (i, (o, d)) in send_set(r ^ last_bit, last_bit, p).enumerate() {
                    debug_assert_eq!(d, r);
                    s.copy(
                        Region::aux((half + i) * b, b),
                        Region::work(slot(o, d, full_mask) * b, b),
                    );
                }
            });
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_alltoall;
    use crate::{Algorithm, AlltoallAlgo, SchedError};

    #[test]
    fn correct_for_powers_of_two() {
        for p in [1u32, 2, 4, 8, 16, 32, 64] {
            check_alltoall(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn send_set_has_half_the_blocks() {
        for p in [2u32, 4, 8, 16] {
            for k in 0..p.trailing_zeros() {
                for r in 0..p {
                    assert_eq!(send_set(r, 1 << k, p).count() as u32, p / 2);
                }
            }
        }
    }

    #[test]
    fn send_set_destinations_disagree_on_bit_k() {
        let p = 16u32;
        for k in 0..4 {
            let bit = 1u32 << k;
            for r in 0..p {
                for (o, d) in send_set(r, bit, p) {
                    assert_ne!(d & bit, r & bit, "r={r} k={k} block=({o},{d})");
                    assert_eq!(o & !(bit - 1), r & !(bit - 1));
                    assert_eq!(d & (bit - 1), r & (bit - 1));
                }
            }
        }
    }

    #[test]
    fn log_messages_but_extra_volume() {
        let p = 16u32;
        let b = 32usize;
        let sch = schedule(p, b);
        for r in 0..p {
            assert_eq!(sch.messages_sent_by(r), 4); // log2(16)
                                                    // (p/2)·log2(p) blocks — more volume than pairwise's p−1.
            assert_eq!(sch.bytes_sent_by(r), 8 * 4 * b);
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        let algo = Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling);
        assert!(matches!(
            algo.schedule(6, 8),
            Err(SchedError::UnsupportedWorld { world: 6 })
        ));
    }
}
