//! Algorithm registry: the enumerations the rest of the system (dataset
//! generation, classifiers, tuning tables) speaks in.

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::schedcheck::SchedError;
use crate::schedule::CommSchedule;
use crate::{allgather, allreduce, alltoall, bcast};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The supported collectives: the paper's two study subjects plus the
/// broadcast/allreduce extensions from its future-work section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Collective {
    Allgather,
    Alltoall,
    Bcast,
    Allreduce,
}

impl Collective {
    /// Every supported collective.
    pub const ALL: [Collective; 4] = [
        Collective::Allgather,
        Collective::Alltoall,
        Collective::Bcast,
        Collective::Allreduce,
    ];

    /// The two collectives the paper evaluates (Table I dataset scope).
    pub const PAPER: [Collective; 2] = [Collective::Allgather, Collective::Alltoall];

    pub fn name(self) -> &'static str {
        match self {
            Collective::Allgather => "MPI_Allgather",
            Collective::Alltoall => "MPI_Alltoall",
            Collective::Bcast => "MPI_Bcast",
            Collective::Allreduce => "MPI_Allreduce",
        }
    }

    /// Number of algorithm choices for this collective.
    pub fn algo_count(self) -> usize {
        match self {
            Collective::Allgather => AllgatherAlgo::ALL.len(),
            Collective::Alltoall => AlltoallAlgo::ALL.len(),
            Collective::Bcast => BcastAlgo::ALL.len(),
            Collective::Allreduce => AllreduceAlgo::ALL.len(),
        }
    }
}

impl fmt::Display for Collective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `MPI_Allgather` algorithm choices (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AllgatherAlgo {
    RecursiveDoubling,
    Ring,
    Bruck,
    /// The paper's "Recursive Doubling Communication" (see
    /// [`allgather::neighbor_exchange`]).
    NeighborExchange,
}

impl AllgatherAlgo {
    pub const ALL: [AllgatherAlgo; 4] = [
        AllgatherAlgo::RecursiveDoubling,
        AllgatherAlgo::Ring,
        AllgatherAlgo::Bruck,
        AllgatherAlgo::NeighborExchange,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AllgatherAlgo::RecursiveDoubling => "recursive_doubling",
            AllgatherAlgo::Ring => "ring",
            AllgatherAlgo::Bruck => "bruck",
            AllgatherAlgo::NeighborExchange => "rd_communication",
        }
    }

    /// Whether the algorithm is defined for `p` ranks.
    pub fn supports(self, p: u32) -> bool {
        match self {
            AllgatherAlgo::RecursiveDoubling => allgather::recursive_doubling::supports(p),
            AllgatherAlgo::Ring => allgather::ring::supports(p),
            AllgatherAlgo::Bruck => allgather::bruck::supports(p),
            AllgatherAlgo::NeighborExchange => allgather::neighbor_exchange::supports(p),
        }
    }

    /// Generate the communication schedule. Errors with
    /// [`SchedError::UnsupportedWorld`] if `!supports(p)`.
    pub fn schedule(self, p: u32, block: usize) -> Result<CommSchedule, SchedError> {
        match self {
            AllgatherAlgo::RecursiveDoubling => allgather::recursive_doubling::schedule(p, block),
            AllgatherAlgo::Ring => Ok(allgather::ring::schedule(p, block)),
            AllgatherAlgo::Bruck => Ok(allgather::bruck::schedule(p, block)),
            AllgatherAlgo::NeighborExchange => allgather::neighbor_exchange::schedule(p, block),
        }
    }

    /// Stable class index for ML labels (the position in [`Self::ALL`];
    /// `indices_round_trip` pins the two in sync).
    pub fn index(self) -> usize {
        match self {
            AllgatherAlgo::RecursiveDoubling => 0,
            AllgatherAlgo::Ring => 1,
            AllgatherAlgo::Bruck => 2,
            AllgatherAlgo::NeighborExchange => 3,
        }
    }

    pub fn from_index(i: usize) -> Option<Self> {
        Self::ALL.get(i).copied()
    }
}

impl fmt::Display for AllgatherAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `MPI_Alltoall` algorithm choices (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AlltoallAlgo {
    Bruck,
    ScatterDest,
    Pairwise,
    RecursiveDoubling,
    Inplace,
}

impl AlltoallAlgo {
    pub const ALL: [AlltoallAlgo; 5] = [
        AlltoallAlgo::Bruck,
        AlltoallAlgo::ScatterDest,
        AlltoallAlgo::Pairwise,
        AlltoallAlgo::RecursiveDoubling,
        AlltoallAlgo::Inplace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AlltoallAlgo::Bruck => "bruck",
            AlltoallAlgo::ScatterDest => "scatter_dest",
            AlltoallAlgo::Pairwise => "pairwise",
            AlltoallAlgo::RecursiveDoubling => "recursive_doubling",
            AlltoallAlgo::Inplace => "inplace",
        }
    }

    /// Whether the algorithm is defined for `p` ranks.
    pub fn supports(self, p: u32) -> bool {
        match self {
            AlltoallAlgo::Bruck => alltoall::bruck::supports(p),
            AlltoallAlgo::ScatterDest => alltoall::scatter_dest::supports(p),
            AlltoallAlgo::Pairwise => alltoall::pairwise::supports(p),
            AlltoallAlgo::RecursiveDoubling => alltoall::recursive_doubling::supports(p),
            AlltoallAlgo::Inplace => alltoall::inplace::supports(p),
        }
    }

    /// Generate the communication schedule. Errors with
    /// [`SchedError::UnsupportedWorld`] if `!supports(p)`.
    pub fn schedule(self, p: u32, block: usize) -> Result<CommSchedule, SchedError> {
        match self {
            AlltoallAlgo::Bruck => Ok(alltoall::bruck::schedule(p, block)),
            AlltoallAlgo::ScatterDest => Ok(alltoall::scatter_dest::schedule(p, block)),
            AlltoallAlgo::Pairwise => Ok(alltoall::pairwise::schedule(p, block)),
            AlltoallAlgo::RecursiveDoubling => alltoall::recursive_doubling::schedule(p, block),
            AlltoallAlgo::Inplace => Ok(alltoall::inplace::schedule(p, block)),
        }
    }

    /// Stable class index for ML labels (the position in [`Self::ALL`];
    /// `indices_round_trip` pins the two in sync).
    pub fn index(self) -> usize {
        match self {
            AlltoallAlgo::Bruck => 0,
            AlltoallAlgo::ScatterDest => 1,
            AlltoallAlgo::Pairwise => 2,
            AlltoallAlgo::RecursiveDoubling => 3,
            AlltoallAlgo::Inplace => 4,
        }
    }

    pub fn from_index(i: usize) -> Option<Self> {
        Self::ALL.get(i).copied()
    }
}

impl fmt::Display for AlltoallAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `MPI_Bcast` algorithm choices (future-work extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BcastAlgo {
    Binomial,
    ScatterAllgather,
    PipelinedRing,
}

impl BcastAlgo {
    pub const ALL: [BcastAlgo; 3] = [
        BcastAlgo::Binomial,
        BcastAlgo::ScatterAllgather,
        BcastAlgo::PipelinedRing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BcastAlgo::Binomial => "binomial",
            BcastAlgo::ScatterAllgather => "scatter_allgather",
            BcastAlgo::PipelinedRing => "pipelined_ring",
        }
    }

    pub fn supports(self, p: u32) -> bool {
        match self {
            BcastAlgo::Binomial => bcast::binomial::supports(p),
            BcastAlgo::ScatterAllgather => bcast::scatter_allgather::supports(p),
            BcastAlgo::PipelinedRing => bcast::pipelined_ring::supports(p),
        }
    }

    /// Generate the communication schedule. Errors with
    /// [`SchedError::UnsupportedWorld`] if `!supports(p)`.
    pub fn schedule(self, p: u32, msg: usize) -> Result<CommSchedule, SchedError> {
        match self {
            BcastAlgo::Binomial => Ok(bcast::binomial::schedule(p, msg)),
            BcastAlgo::ScatterAllgather => Ok(bcast::scatter_allgather::schedule(p, msg)),
            BcastAlgo::PipelinedRing => Ok(bcast::pipelined_ring::schedule(p, msg)),
        }
    }

    /// Stable class index for ML labels (the position in [`Self::ALL`];
    /// `indices_round_trip` pins the two in sync).
    pub fn index(self) -> usize {
        match self {
            BcastAlgo::Binomial => 0,
            BcastAlgo::ScatterAllgather => 1,
            BcastAlgo::PipelinedRing => 2,
        }
    }

    pub fn from_index(i: usize) -> Option<Self> {
        Self::ALL.get(i).copied()
    }
}

impl fmt::Display for BcastAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `MPI_Allreduce` algorithm choices (future-work extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AllreduceAlgo {
    RecursiveDoubling,
    RingReduceScatter,
    ReduceBroadcast,
}

impl AllreduceAlgo {
    pub const ALL: [AllreduceAlgo; 3] = [
        AllreduceAlgo::RecursiveDoubling,
        AllreduceAlgo::RingReduceScatter,
        AllreduceAlgo::ReduceBroadcast,
    ];

    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlgo::RecursiveDoubling => "recursive_doubling",
            AllreduceAlgo::RingReduceScatter => "ring_reduce_scatter",
            AllreduceAlgo::ReduceBroadcast => "reduce_broadcast",
        }
    }

    pub fn supports(self, p: u32) -> bool {
        match self {
            AllreduceAlgo::RecursiveDoubling => allreduce::recursive_doubling::supports(p),
            AllreduceAlgo::RingReduceScatter => allreduce::ring::supports(p),
            AllreduceAlgo::ReduceBroadcast => allreduce::reduce_broadcast::supports(p),
        }
    }

    /// Generate the communication schedule. Errors with
    /// [`SchedError::UnsupportedWorld`] if `!supports(p)`.
    pub fn schedule(self, p: u32, msg: usize) -> Result<CommSchedule, SchedError> {
        match self {
            AllreduceAlgo::RecursiveDoubling => allreduce::recursive_doubling::schedule(p, msg),
            AllreduceAlgo::RingReduceScatter => Ok(allreduce::ring::schedule(p, msg)),
            AllreduceAlgo::ReduceBroadcast => Ok(allreduce::reduce_broadcast::schedule(p, msg)),
        }
    }

    /// Stable class index for ML labels (the position in [`Self::ALL`];
    /// `indices_round_trip` pins the two in sync).
    pub fn index(self) -> usize {
        match self {
            AllreduceAlgo::RecursiveDoubling => 0,
            AllreduceAlgo::RingReduceScatter => 1,
            AllreduceAlgo::ReduceBroadcast => 2,
        }
    }

    pub fn from_index(i: usize) -> Option<Self> {
        Self::ALL.get(i).copied()
    }
}

impl fmt::Display for AllreduceAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Either collective's algorithm, as a single label type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Algorithm {
    Allgather(AllgatherAlgo),
    Alltoall(AlltoallAlgo),
    Bcast(BcastAlgo),
    Allreduce(AllreduceAlgo),
}

impl Algorithm {
    pub fn collective(self) -> Collective {
        match self {
            Algorithm::Allgather(_) => Collective::Allgather,
            Algorithm::Alltoall(_) => Collective::Alltoall,
            Algorithm::Bcast(_) => Collective::Bcast,
            Algorithm::Allreduce(_) => Collective::Allreduce,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Allgather(a) => a.name(),
            Algorithm::Alltoall(a) => a.name(),
            Algorithm::Bcast(a) => a.name(),
            Algorithm::Allreduce(a) => a.name(),
        }
    }

    pub fn supports(self, p: u32) -> bool {
        match self {
            Algorithm::Allgather(a) => a.supports(p),
            Algorithm::Alltoall(a) => a.supports(p),
            Algorithm::Bcast(a) => a.supports(p),
            Algorithm::Allreduce(a) => a.supports(p),
        }
    }

    /// Whether the schedule generated at unit block size, simulated with a
    /// length multiplier, is exactly the schedule at that message size.
    /// True for every allgather/alltoall algorithm (all offsets scale
    /// linearly with the block); false for the chunked bcast/allreduce
    /// variants whose chunk boundaries depend on `msg mod p`.
    pub fn scale_invariant(self) -> bool {
        !matches!(
            self,
            Algorithm::Bcast(BcastAlgo::ScatterAllgather)
                | Algorithm::Bcast(BcastAlgo::PipelinedRing)
                | Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter)
        )
    }

    /// Generate the communication schedule. Errors with
    /// [`SchedError::UnsupportedWorld`] if `!supports(p)` (e.g. recursive
    /// doubling at a non-power-of-two world size).
    pub fn schedule(self, p: u32, block: usize) -> Result<CommSchedule, SchedError> {
        match self {
            Algorithm::Allgather(a) => a.schedule(p, block),
            Algorithm::Alltoall(a) => a.schedule(p, block),
            Algorithm::Bcast(a) => a.schedule(p, block),
            Algorithm::Allreduce(a) => a.schedule(p, block),
        }
    }

    /// Stable class index within the algorithm's collective.
    pub fn index(self) -> usize {
        match self {
            Algorithm::Allgather(a) => a.index(),
            Algorithm::Alltoall(a) => a.index(),
            Algorithm::Bcast(a) => a.index(),
            Algorithm::Allreduce(a) => a.index(),
        }
    }

    pub fn from_index(collective: Collective, i: usize) -> Option<Self> {
        match collective {
            Collective::Allgather => AllgatherAlgo::from_index(i).map(Algorithm::Allgather),
            Collective::Alltoall => AlltoallAlgo::from_index(i).map(Algorithm::Alltoall),
            Collective::Bcast => BcastAlgo::from_index(i).map(Algorithm::Bcast),
            Collective::Allreduce => AllreduceAlgo::from_index(i).map(Algorithm::Allreduce),
        }
    }

    /// All algorithms for a collective.
    pub fn all_for(collective: Collective) -> Vec<Algorithm> {
        match collective {
            Collective::Allgather => AllgatherAlgo::ALL
                .iter()
                .map(|&a| Algorithm::Allgather(a))
                .collect(),
            Collective::Alltoall => AlltoallAlgo::ALL
                .iter()
                .map(|&a| Algorithm::Alltoall(a))
                .collect(),
            Collective::Bcast => BcastAlgo::ALL
                .iter()
                .map(|&a| Algorithm::Bcast(a))
                .collect(),
            Collective::Allreduce => AllreduceAlgo::ALL
                .iter()
                .map(|&a| Algorithm::Allreduce(a))
                .collect(),
        }
    }

    /// All algorithms for a collective that are defined at `p` ranks.
    pub fn applicable_for(collective: Collective, p: u32) -> Vec<Algorithm> {
        Self::all_for(collective)
            .into_iter()
            .filter(|a| a.supports(p))
            .collect()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.collective().name(), self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for c in Collective::ALL {
            for a in Algorithm::all_for(c) {
                assert_eq!(Algorithm::from_index(c, a.index()), Some(a));
            }
        }
    }

    #[test]
    fn applicability_rules() {
        let ag = Algorithm::applicable_for(Collective::Allgather, 6);
        // 6 is even but not a power of two: RD drops out, NE stays.
        assert!(!ag.contains(&Algorithm::Allgather(AllgatherAlgo::RecursiveDoubling)));
        assert!(ag.contains(&Algorithm::Allgather(AllgatherAlgo::NeighborExchange)));
        let aa = Algorithm::applicable_for(Collective::Alltoall, 7);
        assert!(!aa.contains(&Algorithm::Alltoall(AlltoallAlgo::RecursiveDoubling)));
        assert_eq!(aa.len(), 4);
    }

    #[test]
    fn every_algorithm_supports_powers_of_two() {
        for p in [2u32, 4, 8, 16] {
            for c in Collective::ALL {
                assert_eq!(Algorithm::applicable_for(c, p).len(), c.algo_count());
            }
        }
    }

    #[test]
    fn scale_invariance_flags() {
        assert!(Algorithm::Allgather(AllgatherAlgo::Bruck).scale_invariant());
        assert!(Algorithm::Alltoall(AlltoallAlgo::ScatterDest).scale_invariant());
        assert!(Algorithm::Bcast(BcastAlgo::Binomial).scale_invariant());
        assert!(!Algorithm::Bcast(BcastAlgo::ScatterAllgather).scale_invariant());
        assert!(!Algorithm::Allreduce(AllreduceAlgo::RingReduceScatter).scale_invariant());
    }

    #[test]
    fn display_strings() {
        assert_eq!(
            Algorithm::Alltoall(AlltoallAlgo::ScatterDest).to_string(),
            "MPI_Alltoall:scatter_dest"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let a = Algorithm::Allgather(AllgatherAlgo::Bruck);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<Algorithm>(&json).unwrap(), a);
    }
}
