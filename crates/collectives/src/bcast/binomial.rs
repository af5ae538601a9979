//! Binomial-tree broadcast.
//!
//! ⌈log₂ p⌉ rounds: in round k every rank that already holds the payload
//! (rank < 2ᵏ) forwards it to rank + 2ᵏ. The latency-optimal classic for
//! small and medium messages; the full payload crosses every tree edge, so
//! large messages want the pipelined or scatter-based variants instead.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks and a `msg`-byte payload from rank 0.
pub fn schedule(p: u32, msg: usize) -> CommSchedule {
    let mut sb = ScheduleBuilder::new(p, msg, msg, msg, 0);
    for r in 0..p {
        if r == 0 {
            sb.step(r, |s| s.copy(Region::input(0, msg), Region::work(0, msg)));
        }
        let mut k = 0u32;
        while (1u32 << k) < p {
            let bit = 1u32 << k;
            if r < bit && r + bit < p {
                sb.step(r, |s| s.send(r + bit, Region::work(0, msg)));
            } else if r >= bit && r < bit << 1 {
                sb.step(r, |s| s.recv(r - bit, Region::work(0, msg)));
            }
            k += 1;
        }
    }
    sb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_bcast;

    #[test]
    fn correct_for_any_world_size() {
        for p in 1u32..=17 {
            check_bcast(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn root_sends_log_p_messages() {
        let sch = schedule(16, 64);
        assert_eq!(sch.messages_sent_by(0), 4);
        // The last rank only receives.
        assert_eq!(sch.messages_sent_by(15), 0);
    }

    #[test]
    fn every_edge_carries_the_full_payload() {
        let p = 8u32;
        let msg = 256;
        let sch = schedule(p, msg);
        let total: usize = (0..p).map(|r| sch.bytes_sent_by(r)).sum();
        assert_eq!(total, (p as usize - 1) * msg);
    }
}
