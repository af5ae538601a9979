//! Recursive-doubling allreduce.
//!
//! log₂(p) rounds; in round k each rank swaps its full partial vector with
//! partner `r XOR 2ᵏ` and folds the received vector in. Latency-optimal,
//! but the whole vector crosses the wire every round — the small-message
//! choice. Power-of-two worlds only.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks reducing `msg`-byte vectors.
///
/// Needs a power-of-two world size, which `Algorithm::schedule` checks
/// before it calls here.
pub fn schedule(p: u32, msg: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(p, msg, msg, msg, msg);
    sb.work_initialized_from_input();
    for r in 0..p {
        let mut k = 0u32;
        let mut pending = false;
        while (1u32 << k) < p {
            let partner = r ^ (1 << k);
            sb.step(r, |s| {
                if pending {
                    s.combine(Region::aux(0, msg), Region::work(0, msg));
                }
                s.send(partner, Region::work(0, msg));
                s.recv(partner, Region::aux(0, msg));
            });
            pending = true;
            k += 1;
        }
        if pending {
            sb.step(r, |s| s.combine(Region::aux(0, msg), Region::work(0, msg)));
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allreduce;
    use crate::{Algorithm, AllreduceAlgo, SchedError};

    #[test]
    fn correct_for_powers_of_two() {
        for p in [1u32, 2, 4, 8, 16, 32] {
            check_allreduce(&schedule(p, 16), 16).unwrap();
        }
    }

    #[test]
    fn full_vector_every_round() {
        let p = 8u32;
        let msg = 1024;
        let sch = schedule(p, msg);
        for r in 0..p {
            assert_eq!(sch.bytes_sent_by(r), 3 * msg); // log2(8) rounds
            assert_eq!(sch.messages_sent_by(r), 3);
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        let algo = Algorithm::Allreduce(AllreduceAlgo::RecursiveDoubling);
        assert!(matches!(
            algo.schedule(6, 8),
            Err(SchedError::UnsupportedWorld { world: 6 })
        ));
    }
}
