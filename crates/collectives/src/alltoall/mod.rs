//! `MPI_Alltoall` algorithms (§III of the paper).
//!
//! Contract shared by every generator here: rank r's `Input` buffer holds p
//! blocks, the j-th destined to rank j; after execution rank r's `Work`
//! buffer holds p blocks, the i-th being the block rank i sent to r.

pub mod bruck;
pub mod inplace;
pub mod pairwise;
pub mod recursive_doubling;
pub mod scatter_dest;
