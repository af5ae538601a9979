//! Recursive-Doubling allgather.
//!
//! log₂(p) rounds of pairwise exchange: in round k, rank r exchanges its
//! accumulated region of 2ᵏ consecutive blocks with partner `r XOR 2ᵏ`,
//! doubling its holdings each time. Requires a power-of-two world size
//! (the MVAPICH/MPICH implementation falls back to other algorithms
//! otherwise, and so does our registry).

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks with `block`-byte contributions.
///
/// Needs a power-of-two world size, which `Algorithm::schedule` checks
/// before it calls here.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let mut sb = ScheduleBuilder::new(p, b, b, p as usize * b, 0);
    for r in 0..p {
        sb.step(r, |s| {
            s.copy(Region::input(0, b), Region::work(r as usize * b, b))
        });
        let mut k = 0u32;
        while (1 << k) < p {
            let size = 1usize << k;
            let partner = r ^ (1 << k);
            let my_off = (((r >> k) << k) as usize) * b;
            let partner_off = (((partner >> k) << k) as usize) * b;
            sb.step(r, |s| {
                s.send(partner, Region::work(my_off, size * b));
                s.recv(partner, Region::work(partner_off, size * b));
            });
            k += 1;
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allgather;
    use crate::{Algorithm, AllgatherAlgo, SchedError};

    #[test]
    fn correct_for_powers_of_two() {
        for p in [1u32, 2, 4, 8, 16, 32] {
            check_allgather(&schedule(p, 16), 16).unwrap();
        }
    }

    #[test]
    fn log_rounds() {
        let sch = schedule(16, 8);
        // 1 copy step + 4 exchange steps.
        assert_eq!(sch.ranks[0].len(), 5);
    }

    #[test]
    fn each_rank_sends_p_minus_1_blocks() {
        let p = 8u32;
        let b = 32usize;
        let sch = schedule(p, b);
        for r in 0..p {
            assert_eq!(sch.bytes_sent_by(r), (p as usize - 1) * b);
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        let algo = Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling);
        assert!(matches!(
            algo.schedule(6, 8),
            Err(SchedError::UnsupportedWorld { world: 6 })
        ));
    }
}
