//! # pml-collectives
//!
//! MPI collective-communication algorithms as communication schedules —
//! the MVAPICH-engine substitute for the PML-MPI reproduction.
//!
//! Fifteen algorithms are implemented from scratch: four for
//! `MPI_Allgather` (`allgather`), five for `MPI_Alltoall` (`alltoall`),
//! three each for `MPI_Bcast` (`bcast`) and `MPI_Allreduce` (`allreduce`).
//! Each is a *schedule generator* producing the [`schedule::CommSchedule`]
//! IR; [`mod@algo`]'s registry is the only public way to run one
//! ([`Algorithm::schedule`]). One simulator, one test oracle and one
//! static checker read the IR:
//!
//! * [`exec::sim`] — virtual time against a [`pml_simnet::CostModel`]
//!   (the measurement backend for the ML dataset), walking the matched
//!   message graph [`schedcheck`] and [`schedcost`] read; the only
//!   executor the crate ships;
//! * the byte interpreter and `verify`'s `check_*` — test-only, the
//!   byte-for-byte reference every algorithm's tests run against;
//! * [`schedcheck`] — the static proof that a schedule implements its
//!   collective, held to the byte oracle by its own tests.
//!
//! [`mod@measure`] wraps the simulator into the micro-benchmark sweep
//! dataset generation runs.

pub mod algo;
pub(crate) mod allgather;
pub(crate) mod allreduce;
pub(crate) mod alltoall;
pub(crate) mod bcast;
pub mod exec;
pub mod measure;
pub mod schedcheck;
pub mod schedcost;
pub mod schedule;

pub use algo::{Algorithm, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, Collective};
pub use exec::SimResult;
pub use measure::{measure_algo, measure_sweep, shape_setup, Pricer};
pub use schedcheck::{
    check_algorithm, check_schedule, sweep_grid, SchedError, ScheduleDoc, Spec, SCHED_DOC_VERSION,
};
pub use schedcost::{CostError, CostPoly};
pub use schedule::{Buf, CommSchedule, Op, Region, ScheduleBuilder, Step};

#[cfg(test)]
pub(crate) mod verify {
    //! Correctness oracles for collective schedules.
    //!
    //! Each check builds rank-distinguishable inputs, runs the schedule
    //! through the byte interpreter, and compares byte-for-byte against
    //! the collective's mathematical specification. Every algorithm's unit
    //! tests and schedcheck's differential tests funnel through here.

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

    /// Rank-distinguishable allgather inputs: rank r's block is filled
    /// with a pattern derived from (r, byte index).
    fn allgather_inputs(p: u32, block: usize) -> Vec<Vec<u8>> {
        (0..p)
            .map(|r| (0..block).map(|i| pattern(r, r, i)).collect())
            .collect()
    }

    /// Rank-distinguishable alltoall inputs: rank r's block destined to
    /// rank d carries a pattern derived from (r, d, byte index).
    fn alltoall_inputs(p: u32, block: usize) -> Vec<Vec<u8>> {
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
    fn allgather_expected(p: u32, block: usize) -> Vec<u8> {
        (0..p)
            .flat_map(|r| (0..block).map(move |i| pattern(r, r, i)))
            .collect()
    }

    /// Expected alltoall output at rank r: for each source s, the block s
    /// sent to r.
    fn alltoall_expected(p: u32, block: usize, rank: u32) -> Vec<u8> {
        (0..p)
            .flat_map(|s| (0..block).map(move |i| pattern(s, rank, i)))
            .collect()
    }

    /// Bcast inputs: only the root's (rank 0) buffer carries the payload.
    fn bcast_inputs(p: u32, msg: usize) -> Vec<Vec<u8>> {
        (0..p)
            .map(|r| {
                (0..msg)
                    .map(|i| if r == 0 { pattern(0, 0, i) } else { 0xEE })
                    .collect()
            })
            .collect()
    }

    /// Expected bcast output on every rank: the root's payload.
    fn bcast_expected(msg: usize) -> Vec<u8> {
        (0..msg).map(|i| pattern(0, 0, i)).collect()
    }

    /// Allreduce inputs: rank-distinguishable vectors.
    fn allreduce_inputs(p: u32, msg: usize) -> Vec<Vec<u8>> {
        (0..p)
            .map(|r| (0..msg).map(|i| pattern(r, r.wrapping_mul(3), i)).collect())
            .collect()
    }

    /// Expected allreduce output: elementwise wrapping byte sum of all
    /// inputs.
    fn allreduce_expected(p: u32, msg: usize) -> Vec<u8> {
        let mut acc = vec![0u8; msg];
        for input in &allreduce_inputs(p, msg) {
            for (a, b) in acc.iter_mut().zip(input) {
                *a = a.wrapping_add(*b);
            }
        }
        acc
    }

    /// Structurally validate `schedule`, move `inputs` through the
    /// interpreter, and compare rank r's final Work buffer with
    /// `expected(r)`.
    fn check(
        what: &str,
        schedule: &CommSchedule,
        inputs: &[Vec<u8>],
        expected: impl Fn(u32) -> Vec<u8>,
    ) -> Result<(), VerifyError> {
        schedule
            .validate()
            .map_err(|e| VerifyError(format!("structural: {e}")))?;
        let outputs =
            interp::run(schedule, inputs).map_err(|e| VerifyError(format!("execution: {e}")))?;
        for (r, out) in outputs.iter().enumerate() {
            let expected = expected(r as u32);
            if *out != expected {
                let at = out
                    .iter()
                    .zip(&expected)
                    .position(|(x, y)| x != y)
                    .unwrap_or(out.len().min(expected.len()));
                return Err(VerifyError(format!(
                    "{what}: rank {r} output differs (first mismatch at byte {at})"
                )));
            }
        }
        Ok(())
    }

    /// Check `schedule` implements allgather with the given block size.
    pub fn check_allgather(schedule: &CommSchedule, block: usize) -> Result<(), VerifyError> {
        let p = schedule.world;
        let expected = allgather_expected(p, block);
        check(
            &format!("allgather p={p} block={block}"),
            schedule,
            &allgather_inputs(p, block),
            |_| expected.clone(),
        )
    }

    /// Check `schedule` implements broadcast from rank 0 with the given
    /// payload size.
    pub fn check_bcast(schedule: &CommSchedule, msg: usize) -> Result<(), VerifyError> {
        let p = schedule.world;
        let expected = bcast_expected(msg);
        check(
            &format!("bcast p={p} msg={msg}"),
            schedule,
            &bcast_inputs(p, msg),
            |_| expected.clone(),
        )
    }

    /// Check `schedule` implements allreduce (wrapping byte sum) with the
    /// given vector size.
    pub fn check_allreduce(schedule: &CommSchedule, msg: usize) -> Result<(), VerifyError> {
        let p = schedule.world;
        let expected = allreduce_expected(p, msg);
        check(
            &format!("allreduce p={p} msg={msg}"),
            schedule,
            &allreduce_inputs(p, msg),
            |_| expected.clone(),
        )
    }

    /// Check `schedule` implements alltoall with the given block size.
    pub fn check_alltoall(schedule: &CommSchedule, block: usize) -> Result<(), VerifyError> {
        let p = schedule.world;
        check(
            &format!("alltoall p={p} block={block}"),
            schedule,
            &alltoall_inputs(p, block),
            |r| alltoall_expected(p, block, r),
        )
    }

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
}
