//! Schedule executors: three backends consuming the same IR.
//!
//! [`interp`] and [`threaded`] move real bytes and pair messages as they
//! fly, through a mailbox keyed by `(src, dst, tag)` — [`interp`] is the
//! reference [`crate::verify`] compares every algorithm against,
//! [`threaded`] runs the same programs on one OS thread per rank. [`sim`]
//! moves nothing: it prices the matched message graph
//! [`crate::schedcheck`] builds, in virtual time.

pub mod interp;
pub mod sim;
pub mod threaded;

pub use sim::SimResult;

use std::fmt;

/// Failure of a byte-moving executor ([`interp`] or [`threaded`]).
///
/// Schedules straight out of a generator that passed
/// [`CommSchedule::validate`](crate::schedule::CommSchedule::validate)
/// never produce these; the executors still refuse to abort the process on
/// malformed input so a measurement sweep can skip a bad configuration and
/// keep going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Input buffer count doesn't match the schedule's world size.
    InputCount { expected: usize, got: usize },
    /// One rank's input buffer has the wrong length.
    InputLength {
        rank: usize,
        expected: usize,
        got: usize,
    },
    /// A message payload didn't match the length of its target region.
    PayloadMismatch {
        rank: u32,
        expected: usize,
        got: usize,
    },
    /// An op attempted to write into the read-only input buffer.
    ReadOnlyInputWrite { rank: u32 },
    /// Two in-flight messages carried the same (src, dst, tag).
    DuplicateMessage { src: u32, dst: u32, tag: u32 },
    /// No rank can make progress: the schedule receives a message nobody
    /// sends (which `validate` would have rejected) or its ranks wait on
    /// each other in a cycle.
    Deadlock,
    /// Execution completed but sent messages were never received.
    UnconsumedMessages { count: usize },
    /// A rank thread panicked in the threaded executor; the panic payload
    /// text is preserved so the failing rank is identifiable.
    RankPanicked { rank: u32, message: String },
    /// A rank's inbox closed while it still awaited a message — every peer
    /// that could have sent it has already exited (the threaded executor's
    /// analogue of [`ExecError::Deadlock`]).
    ChannelClosed { rank: u32, from: u32, tag: u32 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputCount { expected, got } => {
                write!(
                    f,
                    "need one input buffer per rank: expected {expected}, got {got}"
                )
            }
            ExecError::InputLength {
                rank,
                expected,
                got,
            } => write!(
                f,
                "rank {rank} input has wrong length: expected {expected}, got {got}"
            ),
            ExecError::PayloadMismatch {
                rank,
                expected,
                got,
            } => write!(
                f,
                "rank {rank}: payload/region length mismatch (region {expected}, payload {got})"
            ),
            ExecError::ReadOnlyInputWrite { rank } => {
                write!(f, "rank {rank}: write into read-only input buffer")
            }
            ExecError::DuplicateMessage { src, dst, tag } => {
                write!(f, "duplicate message ({src} -> {dst}, tag {tag})")
            }
            ExecError::Deadlock => {
                write!(f, "schedule deadlocked: no rank can make progress")
            }
            ExecError::UnconsumedMessages { count } => {
                write!(f, "{count} sent message(s) were never received")
            }
            ExecError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} thread panicked: {message}")
            }
            ExecError::ChannelClosed { rank, from, tag } => write!(
                f,
                "rank {rank}: all peers exited while waiting on message from {from} (tag {tag})"
            ),
        }
    }
}

impl std::error::Error for ExecError {}
