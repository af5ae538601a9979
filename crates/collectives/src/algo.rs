//! Algorithm registry: the enumerations the rest of the system (dataset
//! generation, classifiers, tuning tables) speaks in, and `REGISTRY`, one
//! row per algorithm holding everything else known about it.

#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), deny(clippy::match_wildcard_for_single_variants))]

use crate::schedcheck::SchedError;
use crate::schedule::CommSchedule;
use crate::{allgather, allreduce, alltoall, bcast};
use serde::{Deserialize, Serialize};
use std::fmt;
use AllgatherAlgo as Ag;
use AllreduceAlgo as Ar;
use AlltoallAlgo as Aa;
use BcastAlgo as Bc;
use World::{Any, EvenOrOne, PowerOfTwo};

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
        Algorithm::all_for(self).len()
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
    /// The paper's "Recursive Doubling Communication" (`allgather::
    /// neighbor_exchange`).
    NeighborExchange,
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

/// `MPI_Bcast` algorithm choices (future-work extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BcastAlgo {
    Binomial,
    ScatterAllgather,
    PipelinedRing,
}

/// `MPI_Allreduce` algorithm choices (future-work extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AllreduceAlgo {
    RecursiveDoubling,
    RingReduceScatter,
    ReduceBroadcast,
}

/// Any collective's algorithm, as a single label type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Algorithm {
    Allgather(AllgatherAlgo),
    Alltoall(AlltoallAlgo),
    Bcast(BcastAlgo),
    Allreduce(AllreduceAlgo),
}

/// The world sizes `p` an algorithm is defined at. A restricted rule names
/// the algorithm a selector runs where it fails: one of the same
/// collective that is defined at every `p`.
#[derive(Debug, Clone, Copy)]
enum World {
    Any,
    /// Recursive doubling's `r XOR 2ᵏ` pairing.
    PowerOfTwo(Algorithm),
    /// Neighbour exchange's pairs, or the degenerate lone rank.
    EvenOrOne(Algorithm),
}

/// Everything known about one algorithm; each accessor of [`Algorithm`]
/// reads its row.
#[derive(Debug)]
struct Row {
    algo: Algorithm,
    /// The wire name: reports, CLI output and the `Display` label.
    name: &'static str,
    world: World,
    /// The schedule generator, only ever called at a `p` `world` admits.
    generate: fn(u32, usize) -> CommSchedule,
    /// See [`Algorithm::scale_invariant`].
    scale_invariant: bool,
}

/// One row per algorithm in label order: by collective, then in the
/// declaration order of the collective's enum (`rows_in_label_order`).
/// A restricted world names the fallback: Bruck is recursive doubling's
/// any-`p` generalization, ring has neighbour exchange's bandwidth profile,
/// and ring reduce-scatter matches RD-allreduce's bandwidth class.
#[rustfmt::skip]
const REGISTRY: [Row; 15] = [
    Row { algo: Algorithm::Allgather(Ag::RecursiveDoubling), name: "recursive_doubling",  world: PowerOfTwo(Algorithm::Allgather(Ag::Bruck)),             generate: allgather::recursive_doubling::schedule, scale_invariant: true },
    Row { algo: Algorithm::Allgather(Ag::Ring),              name: "ring",                world: Any,                                                     generate: allgather::ring::schedule,               scale_invariant: true },
    Row { algo: Algorithm::Allgather(Ag::Bruck),             name: "bruck",               world: Any,                                                     generate: allgather::bruck::schedule,              scale_invariant: true },
    Row { algo: Algorithm::Allgather(Ag::NeighborExchange),  name: "rd_communication",    world: EvenOrOne(Algorithm::Allgather(Ag::Ring)),               generate: allgather::neighbor_exchange::schedule,  scale_invariant: true },
    Row { algo: Algorithm::Alltoall(Aa::Bruck),              name: "bruck",               world: Any,                                                     generate: alltoall::bruck::schedule,               scale_invariant: true },
    Row { algo: Algorithm::Alltoall(Aa::ScatterDest),        name: "scatter_dest",        world: Any,                                                     generate: alltoall::scatter_dest::schedule,        scale_invariant: true },
    Row { algo: Algorithm::Alltoall(Aa::Pairwise),           name: "pairwise",            world: Any,                                                     generate: alltoall::pairwise::schedule,            scale_invariant: true },
    Row { algo: Algorithm::Alltoall(Aa::RecursiveDoubling),  name: "recursive_doubling",  world: PowerOfTwo(Algorithm::Alltoall(Aa::Bruck)),              generate: alltoall::recursive_doubling::schedule,  scale_invariant: true },
    Row { algo: Algorithm::Alltoall(Aa::Inplace),            name: "inplace",             world: Any,                                                     generate: alltoall::inplace::schedule,             scale_invariant: true },
    Row { algo: Algorithm::Bcast(Bc::Binomial),              name: "binomial",            world: Any,                                                     generate: bcast::binomial::schedule,               scale_invariant: true },
    Row { algo: Algorithm::Bcast(Bc::ScatterAllgather),      name: "scatter_allgather",   world: Any,                                                     generate: bcast::scatter_allgather::schedule,      scale_invariant: false },
    Row { algo: Algorithm::Bcast(Bc::PipelinedRing),         name: "pipelined_ring",      world: Any,                                                     generate: bcast::pipelined_ring::schedule,         scale_invariant: false },
    Row { algo: Algorithm::Allreduce(Ar::RecursiveDoubling), name: "recursive_doubling",  world: PowerOfTwo(Algorithm::Allreduce(Ar::RingReduceScatter)), generate: allreduce::recursive_doubling::schedule, scale_invariant: true },
    Row { algo: Algorithm::Allreduce(Ar::RingReduceScatter), name: "ring_reduce_scatter", world: Any,                                                     generate: allreduce::ring::schedule,               scale_invariant: false },
    Row { algo: Algorithm::Allreduce(Ar::ReduceBroadcast),   name: "reduce_broadcast",    world: Any,                                                     generate: allreduce::reduce_broadcast::schedule,   scale_invariant: true },
];

/// Each row's algorithm, so [`Algorithm::all_for`] can lend a slice.
const ALGORITHMS: [Algorithm; REGISTRY.len()] = {
    let mut all = [REGISTRY[0].algo; REGISTRY.len()];
    let mut k = 0;
    while k < all.len() {
        all[k] = REGISTRY[k].algo;
        k += 1;
    }
    all
};

/// `FIRST_ROW[c as usize]` is collective `c`'s first row and
/// `FIRST_ROW[c as usize + 1]` its end: the rows of earlier collectives,
/// counted.
const FIRST_ROW: [usize; Collective::ALL.len() + 1] = {
    let mut first = [0; Collective::ALL.len() + 1];
    let mut k = 0;
    while k < REGISTRY.len() {
        first[REGISTRY[k].algo.label().0 as usize + 1] += 1;
        k += 1;
    }
    let mut c = 0;
    while c < Collective::ALL.len() {
        first[c + 1] += first[c];
        c += 1;
    }
    first
};

/// Whether every row is the one [`Algorithm::declared_row`] names for its
/// algorithm, and sits at its variant's discriminant past its collective's
/// first row. So each collective's rows are contiguous and follow its
/// enum's declaration order, with no gaps.
const fn rows_in_label_order() -> bool {
    let mut k = 0;
    while k < REGISTRY.len() {
        let (collective, discriminant) = REGISTRY[k].algo.label();
        let declared = REGISTRY[k].algo.declared_row().algo.label();
        let at = FIRST_ROW[collective as usize] + discriminant;
        if declared.0 as usize != collective as usize || declared.1 != discriminant || at != k {
            return false;
        }
        k += 1;
    }
    true
}

// Does not build (an array of length 0 is not one of length 1) unless the
// rows are in label order.
const _: [(); 1] = [(); rows_in_label_order() as usize];

impl Algorithm {
    /// The row each algorithm has in `REGISTRY`: the one match that names
    /// every algorithm, evaluated only by `rows_in_label_order`, which holds
    /// every row to the arm of its algorithm. A new variant does not build
    /// until it has an arm here, and an arm past the table's end is a
    /// compile-time index error.
    const fn declared_row(self) -> &'static Row {
        match self {
            Algorithm::Allgather(Ag::RecursiveDoubling) => &REGISTRY[0],
            Algorithm::Allgather(Ag::Ring) => &REGISTRY[1],
            Algorithm::Allgather(Ag::Bruck) => &REGISTRY[2],
            Algorithm::Allgather(Ag::NeighborExchange) => &REGISTRY[3],
            Algorithm::Alltoall(Aa::Bruck) => &REGISTRY[4],
            Algorithm::Alltoall(Aa::ScatterDest) => &REGISTRY[5],
            Algorithm::Alltoall(Aa::Pairwise) => &REGISTRY[6],
            Algorithm::Alltoall(Aa::RecursiveDoubling) => &REGISTRY[7],
            Algorithm::Alltoall(Aa::Inplace) => &REGISTRY[8],
            Algorithm::Bcast(Bc::Binomial) => &REGISTRY[9],
            Algorithm::Bcast(Bc::ScatterAllgather) => &REGISTRY[10],
            Algorithm::Bcast(Bc::PipelinedRing) => &REGISTRY[11],
            Algorithm::Allreduce(Ar::RecursiveDoubling) => &REGISTRY[12],
            Algorithm::Allreduce(Ar::RingReduceScatter) => &REGISTRY[13],
            Algorithm::Allreduce(Ar::ReduceBroadcast) => &REGISTRY[14],
        }
    }

    /// The algorithm's collective and its variant's discriminant there.
    #[inline]
    const fn label(self) -> (Collective, usize) {
        match self {
            Algorithm::Allgather(a) => (Collective::Allgather, a as usize),
            Algorithm::Alltoall(a) => (Collective::Alltoall, a as usize),
            Algorithm::Bcast(a) => (Collective::Bcast, a as usize),
            Algorithm::Allreduce(a) => (Collective::Allreduce, a as usize),
        }
    }

    /// The algorithm's row, found without a branch: its collective's first
    /// row plus its discriminant, which `rows_in_label_order` holds to be
    /// the row `declared_row` names.
    #[inline]
    fn row(self) -> &'static Row {
        let (collective, discriminant) = self.label();
        &REGISTRY[FIRST_ROW[collective as usize] + discriminant]
    }

    #[inline]
    pub fn collective(self) -> Collective {
        self.label().0
    }

    #[inline]
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Whether the algorithm is defined for `p` ranks: its row's world rule.
    #[inline]
    pub fn supports(self, p: u32) -> bool {
        match self.row().world {
            Any => true,
            PowerOfTwo(_) => p.is_power_of_two(),
            EvenOrOne(_) => p == 1 || p.is_multiple_of(2),
        }
    }

    /// Whether the schedule generated at unit block size, simulated with a
    /// length multiplier, is exactly the schedule at that message size.
    /// True for every allgather/alltoall algorithm (all offsets scale
    /// linearly with the block); false for the chunked bcast/allreduce
    /// variants whose chunk boundaries depend on `msg mod p`.
    #[inline]
    pub fn scale_invariant(self) -> bool {
        self.row().scale_invariant
    }

    /// What a selector runs at a `p` this algorithm is not defined at: a
    /// relative in the same collective defined at every `p` (the algorithm
    /// itself when it is defined everywhere).
    #[inline]
    pub fn fallback(self) -> Algorithm {
        match self.row().world {
            Any => self,
            PowerOfTwo(relative) | EvenOrOne(relative) => relative,
        }
    }

    /// Generate the communication schedule. Errors with
    /// [`SchedError::UnsupportedWorld`] if `!supports(p)` (e.g. recursive
    /// doubling at a non-power-of-two world size).
    pub fn schedule(self, p: u32, block: usize) -> Result<CommSchedule, SchedError> {
        if !self.supports(p) {
            return Err(SchedError::UnsupportedWorld { world: p });
        }
        Ok((self.row().generate)(p, block))
    }

    /// Stable class index within the algorithm's collective: its row's
    /// position among the collective's rows, which is its discriminant.
    #[inline]
    pub fn index(self) -> usize {
        self.label().1
    }

    #[inline]
    pub fn from_index(collective: Collective, i: usize) -> Option<Self> {
        Self::all_for(collective).get(i).copied()
    }

    /// All algorithms for a collective, in label order.
    #[inline]
    pub fn all_for(collective: Collective) -> &'static [Algorithm] {
        let c = collective as usize;
        &ALGORITHMS[FIRST_ROW[c]..FIRST_ROW[c + 1]]
    }

    /// All algorithms for a collective that are defined at `p` ranks.
    pub fn applicable_for(collective: Collective, p: u32) -> Vec<Algorithm> {
        let mut applicable = Self::all_for(collective).to_vec();
        applicable.retain(|a| a.supports(p));
        applicable
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

    /// Every algorithm's serde JSON, `Display`, `name()` and `index()`, as
    /// recorded before the registry replaced the per-collective matches:
    /// the bytes of every model, table and report label.
    #[rustfmt::skip]
    const LABELS: [(&str, &str, &str, usize); 15] = [
        (r#"{"Allgather":"RecursiveDoubling"}"#, "MPI_Allgather:recursive_doubling",  "recursive_doubling",  0),
        (r#"{"Allgather":"Ring"}"#,              "MPI_Allgather:ring",                "ring",                1),
        (r#"{"Allgather":"Bruck"}"#,             "MPI_Allgather:bruck",               "bruck",               2),
        (r#"{"Allgather":"NeighborExchange"}"#,  "MPI_Allgather:rd_communication",    "rd_communication",    3),
        (r#"{"Alltoall":"Bruck"}"#,              "MPI_Alltoall:bruck",                "bruck",               0),
        (r#"{"Alltoall":"ScatterDest"}"#,        "MPI_Alltoall:scatter_dest",         "scatter_dest",        1),
        (r#"{"Alltoall":"Pairwise"}"#,           "MPI_Alltoall:pairwise",             "pairwise",            2),
        (r#"{"Alltoall":"RecursiveDoubling"}"#,  "MPI_Alltoall:recursive_doubling",   "recursive_doubling",  3),
        (r#"{"Alltoall":"Inplace"}"#,            "MPI_Alltoall:inplace",              "inplace",             4),
        (r#"{"Bcast":"Binomial"}"#,              "MPI_Bcast:binomial",                "binomial",            0),
        (r#"{"Bcast":"ScatterAllgather"}"#,      "MPI_Bcast:scatter_allgather",       "scatter_allgather",   1),
        (r#"{"Bcast":"PipelinedRing"}"#,         "MPI_Bcast:pipelined_ring",          "pipelined_ring",      2),
        (r#"{"Allreduce":"RecursiveDoubling"}"#, "MPI_Allreduce:recursive_doubling",  "recursive_doubling",  0),
        (r#"{"Allreduce":"RingReduceScatter"}"#, "MPI_Allreduce:ring_reduce_scatter", "ring_reduce_scatter", 1),
        (r#"{"Allreduce":"ReduceBroadcast"}"#,   "MPI_Allreduce:reduce_broadcast",    "reduce_broadcast",    2),
    ];

    #[test]
    fn indices_round_trip() {
        for c in Collective::ALL {
            for &a in Algorithm::all_for(c) {
                assert_eq!(Algorithm::from_index(c, a.index()), Some(a));
                assert_eq!(a.collective(), c);
            }
            assert_eq!(Algorithm::from_index(c, c.algo_count()), None);
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

    /// Every algorithm paired with its row of `LABELS`, in registry order.
    fn labelled() -> impl Iterator<
        Item = (
            Algorithm,
            &'static (&'static str, &'static str, &'static str, usize),
        ),
    > {
        let all: Vec<Algorithm> = Collective::ALL
            .into_iter()
            .flat_map(|c| Algorithm::all_for(c).iter().copied())
            .collect();
        assert_eq!(all.len(), LABELS.len());
        all.into_iter().zip(&LABELS)
    }

    #[test]
    fn display_strings() {
        for (a, &(_, display, name, index)) in labelled() {
            assert_eq!(a.to_string(), display);
            assert_eq!(a.name(), name);
            assert_eq!(a.index(), index);
        }
    }

    #[test]
    fn serde_roundtrip() {
        for (a, &(json, ..)) in labelled() {
            assert_eq!(serde_json::to_string(&a).unwrap(), json);
            assert_eq!(serde_json::from_str::<Algorithm>(json).unwrap(), a);
        }
    }

    #[test]
    fn restricted_worlds_name_an_any_world_fallback() {
        for row in &REGISTRY {
            let fallback = row.algo.fallback();
            match row.world {
                Any => assert_eq!(fallback, row.algo),
                PowerOfTwo(_) | EvenOrOne(_) => {
                    assert_ne!(fallback, row.algo);
                    assert_eq!(fallback.collective(), row.algo.collective());
                    assert!((1..=1024).all(|p| fallback.supports(p)), "{}", row.algo);
                }
            }
        }
    }

    #[test]
    fn schedule_checks_the_world_rule_once() {
        for &a in Collective::ALL.iter().flat_map(|&c| Algorithm::all_for(c)) {
            for p in 1..=12u32 {
                match a.schedule(p, 4) {
                    Ok(s) => assert!(a.supports(p) && s.world == p, "{a} p={p}"),
                    Err(e) => assert_eq!(
                        (a.supports(p), e),
                        (false, SchedError::UnsupportedWorld { world: p })
                    ),
                }
            }
        }
    }
}
