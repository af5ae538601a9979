//! `MPI_Bcast` algorithms — the first of the paper's future-work
//! extensions ("a broader range of MPI collective communication").
//!
//! Contract: rank 0 (the root) holds the `msg`-byte payload in `Input`;
//! after execution every rank's `Work` buffer holds that payload. Non-root
//! ranks' `Input` contents are ignored.

pub mod binomial;
pub mod pipelined_ring;
pub mod scatter_allgather;
