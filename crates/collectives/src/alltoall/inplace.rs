//! In-place alltoall (the MPI_IN_PLACE algorithm).
//!
//! The user's data already sits in the receive buffer
//! ([`CommSchedule::work_initialized_from_input`] is set), and the algorithm
//! exchanges block-by-block with every partner using sendrecv-replace
//! semantics: stage the outgoing block in `Aux`, send it, receive the
//! partner's block into the vacated slot. Memory footprint is a single
//! spare block — its selling point — at the price of p−1 strictly
//! serialized rounds, each with an extra staging copy.
//!
//! Pairing follows MPICH: lexicographic pair enumeration — rank r meets
//! partners 0, 1, …, r−1, r+1, …, p−1 in that order (XOR pairing for
//! power-of-two worlds, which aligns both sides' rounds).

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks with `block`-byte blocks.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let pu = p as usize;
    let mut sb = ScheduleBuilder::new(p, b, pu * b, pu * b, b);
    sb.work_initialized_from_input();
    let pow2 = p.is_power_of_two();
    for r in 0..p {
        let partners: Vec<u32> = if pow2 {
            (1..p).map(|k| r ^ k).collect()
        } else {
            (0..p).filter(|&q| q != r).collect()
        };
        for partner in partners {
            let slot = partner as usize * b;
            sb.step(r, |s| {
                s.copy(Region::work(slot, b), Region::aux(0, b));
                s.send(partner, Region::aux(0, b));
                s.recv(partner, Region::work(slot, b));
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
        for p in 1u32..=12 {
            check_alltoall(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn uses_single_block_of_scratch() {
        let sch = schedule(9, 32);
        assert_eq!(sch.aux_len, 32);
    }

    #[test]
    fn pays_a_staging_copy_every_round() {
        let p = 6u32;
        let b = 16usize;
        let sch = schedule(p, b);
        for r in 0..p {
            assert_eq!(sch.bytes_copied_by(r), (p as usize - 1) * b);
        }
    }

    #[test]
    fn work_is_preseeded() {
        assert!(schedule(4, 8).work_initialized_from_input);
    }
}
