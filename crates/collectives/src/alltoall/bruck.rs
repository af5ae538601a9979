//! Bruck alltoall.
//!
//! ⌈log₂ p⌉ communication rounds for any p, at the price of heavy local
//! data movement:
//!
//! 1. **Rotation**: rank r locally rotates its blocks so slot j holds the
//!    block destined to (r + j) mod p.
//! 2. **Rounds**: in round k, every rank packs the slots whose index has
//!    bit k set, sends the packed buffer to (r + 2ᵏ) mod p, receives the
//!    same slot set from (r − 2ᵏ) mod p, and unpacks at the start of the
//!    next round.
//! 3. **Inverse placement**: slot j now holds the block from origin
//!    (r − j) mod p; per-block copies restore origin order.
//!
//! Few large messages ⇒ wins when latency or per-message overhead dominates
//! (small messages, slow-clock CPUs, high-latency fabrics); the O(p·b·log p)
//! packing traffic ⇒ loses once messages outgrow the cache — the behaviour
//! Fig. 2 of the paper shows flipping between Frontera and MRI.

use crate::schedule::{CommSchedule, Region, ScheduleBuilder, StepBuilder};

/// Build the schedule for `p` ranks with `block`-byte blocks.
pub fn schedule(p: u32, block: usize) -> CommSchedule {
    let b = block;
    let pu = p as usize;
    // Aux layout: [0 .. half·b) packed send staging, [half·b .. 2·half·b)
    // receive staging, [2·half·b .. 2·half·b + p·b) final-permutation staging.
    let half = pu.div_ceil(2);
    let aux_len = (2 * half + pu) * b;
    let mut sb = ScheduleBuilder::new(p, b, pu * b, pu * b, aux_len);
    for r in 0..p {
        let ru = r as usize;
        // Phase 1: rotation. Slot j := input block (r + j) mod p.
        sb.step(r, |s| {
            s.copy(
                Region::input(ru * b, (pu - ru) * b),
                Region::work(0, (pu - ru) * b),
            );
            if ru > 0 {
                s.copy(
                    Region::input(0, ru * b),
                    Region::work((pu - ru) * b, ru * b),
                );
            }
        });
        // Phase 2: rounds. `pending` = slots received last round, currently
        // staged in aux and unpacked at the start of the next step.
        let mut pending: Vec<usize> = Vec::new();
        let mut pending_off = 0usize;
        let mut k = 0u32;
        while (1u32 << k) < p {
            let bit = 1usize << k;
            let send_slots: Vec<usize> = (0..pu).filter(|j| j & bit != 0).collect();
            let m = send_slots.len();
            let to = (r + (1 << k)) % p;
            let from = (r + p - (1 << k)) % p;
            sb.step(r, |s| {
                unpack(s, &pending, pending_off, b);
                pack(s, &send_slots, 0, b);
                s.send(to, Region::aux(0, m * b));
                s.recv(from, Region::aux(m * b, m * b));
            });
            pending = send_slots;
            pending_off = m * b;
            k += 1;
        }
        // Phase 3: unpack the final round, then invert: the block in slot j
        // originates from (r − j) mod p and must land at Work[origin·b].
        let perm_base = 2 * half * b;
        sb.step(r, |s| {
            unpack(s, &pending, pending_off, b);
            if pu > 1 {
                for j in 0..pu {
                    let origin = (ru + pu - j) % pu;
                    s.copy(
                        Region::work(j * b, b),
                        Region::aux(perm_base + origin * b, b),
                    );
                }
                s.copy(Region::aux(perm_base, pu * b), Region::work(0, pu * b));
            }
        });
    }
    sb.finish()
}

/// Copy `slots` (maximally coalesced into contiguous runs) from Work into
/// aux starting at `aux_off`.
fn pack(s: &mut StepBuilder<'_>, slots: &[usize], aux_off: usize, b: usize) {
    for (run_start_idx, run_len) in runs(slots) {
        let first_slot = slots[run_start_idx];
        s.copy(
            Region::work(first_slot * b, run_len * b),
            Region::aux(aux_off + run_start_idx * b, run_len * b),
        );
    }
}

/// Copy received blocks from aux (starting at `aux_off`) back into their
/// Work `slots`, coalescing contiguous runs.
fn unpack(s: &mut StepBuilder<'_>, slots: &[usize], aux_off: usize, b: usize) {
    for (run_start_idx, run_len) in runs(slots) {
        let first_slot = slots[run_start_idx];
        s.copy(
            Region::aux(aux_off + run_start_idx * b, run_len * b),
            Region::work(first_slot * b, run_len * b),
        );
    }
}

/// Decompose a sorted slot list into (start index, length) contiguous runs.
fn runs(slots: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < slots.len() {
        let mut j = i + 1;
        while j < slots.len() && slots[j] == slots[j - 1] + 1 {
            j += 1;
        }
        out.push((i, j - i));
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_alltoall;

    #[test]
    fn correct_for_any_world_size() {
        for p in 1u32..=17 {
            check_alltoall(&schedule(p, 8), 8).unwrap();
        }
    }

    #[test]
    fn log_rounds_of_communication() {
        let p = 16u32;
        let sch = schedule(p, 8);
        for r in 0..p {
            assert_eq!(sch.messages_sent_by(r), 4); // log2(16)
        }
    }

    #[test]
    fn heavy_copy_traffic() {
        let p = 8u32;
        let b = 64usize;
        let sch = schedule(p, b);
        // Rotation (p·b) + per-round pack/unpack (~p·b/2 each way per round)
        // + final permutation (2·p·b) — far more copying than pairwise.
        assert!(sch.bytes_copied_by(1) > 4 * p as usize * b);
    }

    #[test]
    fn runs_coalesce() {
        assert_eq!(runs(&[1, 2, 3, 5, 6, 9]), vec![(0, 3), (3, 2), (5, 1)]);
        assert_eq!(runs(&[]), vec![]);
    }
}
