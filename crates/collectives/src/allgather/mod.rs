//! `MPI_Allgather` algorithms (§III of the paper).
//!
//! Contract shared by every generator here: each rank's `Input` buffer holds
//! its own `block`-byte contribution; after execution, each rank's `Work`
//! buffer holds all `p` blocks in rank order (`Work[i·b .. (i+1)·b]` = rank
//! i's block).

pub mod bruck;
pub mod neighbor_exchange;
pub mod recursive_doubling;
pub mod ring;
