//! `MPI_Allreduce` algorithms — future-work extension #2, exercising the
//! IR's [`Op::Combine`](crate::schedule::Op::Combine) reduction operation.
//!
//! Contract: every rank holds a `msg`-byte vector in `Input`; after
//! execution every rank's `Work` buffer holds the elementwise reduction
//! (wrapping byte addition — see `Op::Combine`) of all p vectors.

pub mod recursive_doubling;
pub mod reduce_broadcast;
pub mod ring;
