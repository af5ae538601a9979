//! Bruck (dissemination) allgather.
//!
//! ⌈log₂ p⌉ rounds for *any* p: in round k, rank r sends its first
//! min(2ᵏ, p−2ᵏ) accumulated blocks to rank (r − 2ᵏ) mod p and receives the
//! same amount from (r + 2ᵏ) mod p, appending to its accumulation. Blocks
//! end up rotated by r positions, so a final local rotation (through `Aux`)
//! restores rank order — the memory traffic of that rotation is Bruck's
//! classic large-message weakness and is faithfully charged by the cost
//! model.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks with `block`-byte contributions.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let pu = p as usize;
    let mut sb = ScheduleBuilder::new(p, b, b, pu * b, pu * b);
    for r in 0..p {
        // Own block starts the accumulation at offset 0.
        sb.step(r, |s| s.copy(Region::input(0, b), Region::work(0, b)));
        let mut cur = 1usize; // blocks accumulated so far
        let mut k = 0u32;
        while cur < pu {
            let m = cur.min(pu - cur);
            let to = (r + p - (1 << k)) % p;
            let from = (r + (1 << k)) % p;
            sb.step(r, |s| {
                s.send(to, Region::work(0, m * b));
                s.recv(from, Region::work(cur * b, m * b));
            });
            cur += m;
            k += 1;
        }
        // Work[i] now holds block (r + i) mod p; rotate so block j sits at
        // offset j·b. Identity when r == 0.
        if r != 0 && p > 1 {
            let ru = r as usize;
            sb.step(r, |s| {
                s.copy(
                    Region::work(0, (pu - ru) * b),
                    Region::aux(ru * b, (pu - ru) * b),
                );
                s.copy(Region::work((pu - ru) * b, ru * b), Region::aux(0, ru * b));
                s.copy(Region::aux(0, pu * b), Region::work(0, pu * b));
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
    fn correct_for_any_world_size() {
        for p in 1u32..=17 {
            check_allgather(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn ceil_log_rounds() {
        // p = 10: copy + rounds at distances 1,2,4,8 (partial) + rotation.
        let sch = schedule(10, 8);
        assert_eq!(sch.ranks[3].len(), 1 + 4 + 1);
    }

    #[test]
    fn rotation_copies_charged() {
        let p = 8u32;
        let b = 16usize;
        let sch = schedule(p, b);
        // Non-zero ranks pay ~2·p·b of rotation copies on top of the own-
        // block copy.
        assert!(sch.bytes_copied_by(3) >= 2 * p as usize * b);
        // Rank 0 needs no rotation.
        assert_eq!(sch.bytes_copied_by(0), b);
    }
}
