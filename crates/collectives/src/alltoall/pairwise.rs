//! Pairwise-exchange alltoall.
//!
//! p−1 rounds; in round k each rank exchanges exactly one block with one
//! partner. For power-of-two worlds the partner is `rank XOR k` (a perfect
//! pairing — both sides exchange in the same round); otherwise the shifted
//! pattern send-to `(r+k) mod p` / receive-from `(r−k) mod p` is used, as in
//! MPICH. One in-flight message per rank per round keeps NIC pressure at its
//! minimum — the large-message workhorse.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks with `block`-byte blocks.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let pu = p as usize;
    let mut sb = ScheduleBuilder::new(p, b, pu * b, pu * b, 0);
    let pow2 = p.is_power_of_two();
    for r in 0..p {
        sb.step(r, |s| {
            s.copy(
                Region::input(r as usize * b, b),
                Region::work(r as usize * b, b),
            )
        });
        for k in 1..p {
            let (to, from) = if pow2 {
                (r ^ k, r ^ k)
            } else {
                ((r + k) % p, (r + p - k) % p)
            };
            sb.step(r, |s| {
                s.send(to, Region::input(to as usize * b, b));
                s.recv(from, Region::work(from as usize * b, b));
            });
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_alltoall;

    #[test]
    fn correct_for_any_world_size() {
        for p in 1u32..=13 {
            check_alltoall(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn one_message_per_round() {
        let p = 8u32;
        let sch = schedule(p, 8);
        for r in 0..p {
            // copy step + p-1 rounds, one send each.
            assert_eq!(sch.ranks[r as usize].len(), p as usize);
            assert_eq!(sch.messages_sent_by(r), p as usize - 1);
        }
    }

    #[test]
    fn xor_pairing_used_for_powers_of_two() {
        let sch = schedule(4, 8);
        // Rank 1, round k=1: partner 1^1 = 0.
        let (to, _, _) = sch.ranks[1][1].sends().next().unwrap();
        assert_eq!(*to, 0);
    }
}
