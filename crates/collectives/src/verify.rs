//! Correctness oracles for collective schedules.
//!
//! Each check builds rank-distinguishable inputs, runs the schedule through
//! the sequential interpreter, and compares byte-for-byte against the
//! collective's mathematical specification. Property tests and every
//! algorithm's unit tests funnel through here.

use crate::exec::interp;
use crate::schedule::CommSchedule;

/// Error describing a semantic violation found by a checker.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError(pub String);

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "collective verification failed: {}", self.0)
    }
}

impl std::error::Error for VerifyError {}

/// Rank-distinguishable allgather inputs: rank r's block is filled with a
/// pattern derived from (r, byte index).
pub fn allgather_inputs(p: u32, block: usize) -> Vec<Vec<u8>> {
    (0..p)
        .map(|r| (0..block).map(|i| pattern(r, r, i)).collect())
        .collect()
}

/// Rank-distinguishable alltoall inputs: rank r's block destined to rank d
/// carries a pattern derived from (r, d, byte index).
pub fn alltoall_inputs(p: u32, block: usize) -> Vec<Vec<u8>> {
    (0..p)
        .map(|r| {
            (0..p)
                .flat_map(|d| (0..block).map(move |i| pattern(r, d, i)))
                .collect()
        })
        .collect()
}

fn pattern(src: u32, dst: u32, i: usize) -> u8 {
    (src as usize)
        .wrapping_mul(131)
        .wrapping_add((dst as usize).wrapping_mul(31))
        .wrapping_add(i.wrapping_mul(7))
        .wrapping_add(17) as u8
}

/// Expected allgather output (identical on every rank): all blocks
/// concatenated in rank order.
pub fn allgather_expected(p: u32, block: usize) -> Vec<u8> {
    (0..p)
        .flat_map(|r| (0..block).map(move |i| pattern(r, r, i)))
        .collect()
}

/// Expected alltoall output at rank r: for each source s, the block s sent
/// to r.
pub fn alltoall_expected(p: u32, block: usize, rank: u32) -> Vec<u8> {
    (0..p)
        .flat_map(|s| (0..block).map(move |i| pattern(s, rank, i)))
        .collect()
}

/// Validate `schedule` and move `inputs` through the interpreter: every
/// rank's final Work buffer.
fn outputs_of(schedule: &CommSchedule, inputs: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, VerifyError> {
    schedule
        .validate()
        .map_err(|e| VerifyError(format!("structural: {e}")))?;
    interp::run(schedule, inputs).map_err(|e| VerifyError(format!("execution: {e}")))
}

/// Structurally validate `schedule` and check it implements allgather with
/// the given block size.
pub fn check_allgather(schedule: &CommSchedule, block: usize) -> Result<(), VerifyError> {
    let p = schedule.world;
    let outputs = outputs_of(schedule, &allgather_inputs(p, block))?;
    let expected = allgather_expected(p, block);
    for (r, out) in outputs.iter().enumerate() {
        if *out != expected {
            return Err(VerifyError(format!(
                "allgather p={p} block={block}: rank {r} output differs (first mismatch at byte {})",
                first_mismatch(out, &expected)
            )));
        }
    }
    Ok(())
}

/// Bcast inputs: only the root's (rank 0) buffer carries the payload.
pub fn bcast_inputs(p: u32, msg: usize) -> Vec<Vec<u8>> {
    (0..p)
        .map(|r| {
            (0..msg)
                .map(|i| if r == 0 { pattern(0, 0, i) } else { 0xEE })
                .collect()
        })
        .collect()
}

/// Expected bcast output on every rank: the root's payload.
pub fn bcast_expected(msg: usize) -> Vec<u8> {
    (0..msg).map(|i| pattern(0, 0, i)).collect()
}

/// Allreduce inputs: rank-distinguishable vectors.
pub fn allreduce_inputs(p: u32, msg: usize) -> Vec<Vec<u8>> {
    (0..p)
        .map(|r| (0..msg).map(|i| pattern(r, r.wrapping_mul(3), i)).collect())
        .collect()
}

/// Expected allreduce output: elementwise wrapping byte sum of all inputs.
pub fn allreduce_expected(p: u32, msg: usize) -> Vec<u8> {
    let inputs = allreduce_inputs(p, msg);
    let mut acc = vec![0u8; msg];
    for input in &inputs {
        for (a, b) in acc.iter_mut().zip(input) {
            *a = a.wrapping_add(*b);
        }
    }
    acc
}

/// Structurally validate `schedule` and check it implements broadcast from
/// rank 0 with the given payload size.
pub fn check_bcast(schedule: &CommSchedule, msg: usize) -> Result<(), VerifyError> {
    let p = schedule.world;
    let outputs = outputs_of(schedule, &bcast_inputs(p, msg))?;
    let expected = bcast_expected(msg);
    for (r, out) in outputs.iter().enumerate() {
        if *out != expected {
            return Err(VerifyError(format!(
                "bcast p={p} msg={msg}: rank {r} output differs (first mismatch at byte {})",
                first_mismatch(out, &expected)
            )));
        }
    }
    Ok(())
}

/// Structurally validate `schedule` and check it implements allreduce
/// (wrapping byte sum) with the given vector size.
pub fn check_allreduce(schedule: &CommSchedule, msg: usize) -> Result<(), VerifyError> {
    let p = schedule.world;
    let outputs = outputs_of(schedule, &allreduce_inputs(p, msg))?;
    let expected = allreduce_expected(p, msg);
    for (r, out) in outputs.iter().enumerate() {
        if *out != expected {
            return Err(VerifyError(format!(
                "allreduce p={p} msg={msg}: rank {r} output differs (first mismatch at byte {})",
                first_mismatch(out, &expected)
            )));
        }
    }
    Ok(())
}

/// Structurally validate `schedule` and check it implements alltoall with
/// the given block size.
pub fn check_alltoall(schedule: &CommSchedule, block: usize) -> Result<(), VerifyError> {
    let p = schedule.world;
    let outputs = outputs_of(schedule, &alltoall_inputs(p, block))?;
    for (r, out) in outputs.iter().enumerate() {
        let expected = alltoall_expected(p, block, r as u32);
        if *out != expected {
            return Err(VerifyError(format!(
                "alltoall p={p} block={block}: rank {r} output differs (first mismatch at byte {})",
                first_mismatch(out, &expected)
            )));
        }
    }
    Ok(())
}

fn first_mismatch(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Region, ScheduleBuilder};

    #[test]
    fn detects_wrong_allgather() {
        // A schedule that only copies its own block (no communication).
        let p = 2u32;
        let b = 4;
        let mut sb = ScheduleBuilder::new(p, b, b, p as usize * b, 0);
        for r in 0..p {
            sb.step(r, |s| {
                s.copy(Region::input(0, b), Region::work(r as usize * b, b))
            });
        }
        let err = check_allgather(&sb.finish(), b).unwrap_err();
        assert!(err.0.contains("rank 0 output differs"));
    }

    #[test]
    fn inputs_are_rank_distinguishable() {
        let a = allgather_inputs(4, 8);
        assert_ne!(a[0], a[1]);
        let t = alltoall_inputs(3, 8);
        assert_ne!(t[0][0..8], t[0][8..16]); // different destinations differ
    }
}
