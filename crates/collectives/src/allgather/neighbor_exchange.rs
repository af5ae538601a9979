//! Neighbour-exchange allgather — our reading of the paper's "Recursive
//! Doubling Communication" variant.
//!
//! The paper describes it as a Recursive-Doubling relative that "exchanges
//! subsets of data … resulting in lower communication overhead". That is
//! the neighbour-exchange scheme of Chen et al. (used by Open MPI): after an
//! initial single-block swap with one neighbour, ranks alternate between
//! their two ring neighbours, forwarding the *pair* of blocks they received
//! in the previous round. p/2 rounds total — half as many as Ring, at two
//! blocks per message — which trades latency terms for slightly larger
//! transfers. Requires an even world size.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder};

/// Build the schedule for `p` ranks with `block`-byte contributions.
///
/// Needs an even world size (or a lone rank), which `Algorithm::schedule`
/// checks before it calls here.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let pu = p as usize;
    let mut sb = ScheduleBuilder::new(p, b, b, pu * b, 0);
    let q = p / 2; // number of block pairs
    for r in 0..p {
        sb.step(r, |s| {
            s.copy(Region::input(0, b), Region::work(r as usize * b, b))
        });
        if p == 1 {
            continue;
        }
        let even = r.is_multiple_of(2);
        // Round 0: swap single own blocks with the fixed first neighbour.
        let first = if even { r + 1 } else { r - 1 };
        sb.step(r, |s| {
            s.send(first, Region::work(r as usize * b, b));
            s.recv(first, Region::work(first as usize * b, b));
        });
        // Rounds 1..q: forward the pair received last round to alternating
        // neighbours. Pair indices follow the closed form derived from the
        // exchange pattern (validated exhaustively in tests).
        let mut last_pair = r / 2;
        for s_idx in 1..q {
            let (partner, recv_pair) = if even {
                if !s_idx.is_multiple_of(2) {
                    ((r + p - 1) % p, last_pair_sub(r / 2, s_idx.div_ceil(2), q))
                } else {
                    ((r + 1) % p, (r / 2 + s_idx / 2) % q)
                }
            } else if !s_idx.is_multiple_of(2) {
                ((r + 1) % p, (r / 2 + s_idx.div_ceil(2)) % q)
            } else {
                ((r + p - 1) % p, last_pair_sub(r / 2, s_idx / 2, q))
            };
            let send_off = 2 * last_pair as usize * b;
            let recv_off = 2 * recv_pair as usize * b;
            sb.step(r, |st| {
                st.send(partner, Region::work(send_off, 2 * b));
                st.recv(partner, Region::work(recv_off, 2 * b));
            });
            last_pair = recv_pair;
        }
    }
    sb.finish()
}

/// (a - d) mod q on u32 without underflow.
fn last_pair_sub(a: u32, d: u32, q: u32) -> u32 {
    (a + q - (d % q)) % q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allgather;
    use crate::{Algorithm, AllgatherAlgo, SchedError};

    #[test]
    fn correct_for_even_worlds() {
        for p in [1u32, 2, 4, 6, 8, 10, 12, 14, 16, 20] {
            check_allgather(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn half_the_rounds_of_ring() {
        let p = 12u32;
        let sch = schedule(p, 8);
        // copy + p/2 exchange rounds.
        assert_eq!(sch.ranks[5].len(), 1 + p as usize / 2);
    }

    #[test]
    fn bandwidth_matches_ring() {
        let p = 10u32;
        let b = 32usize;
        let sch = schedule(p, b);
        for r in 0..p {
            // 1 block + (p/2 - 1) pairs = p - 1 blocks.
            assert_eq!(sch.bytes_sent_by(r), (p as usize - 1) * b);
        }
    }

    #[test]
    fn rejects_odd_worlds() {
        let algo = Algorithm::Allgather(AllgatherAlgo::NeighborExchange);
        assert!(matches!(
            algo.schedule(7, 8),
            Err(SchedError::UnsupportedWorld { world: 7 })
        ));
    }
}
