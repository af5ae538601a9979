//! Tuning-table wire format and lookup totality, end to end: a real model
//! generates a real table, the table survives a JSON round trip, and the
//! nearest-bucket lookup answers every query the MPI runtime could pose.

mod common;

use pml_mpi::{core::TableIndex, Collective, TuningTable};

#[test]
fn json_round_trip_is_lossless() {
    let mut engine = common::mini_engine();
    let table = engine
        .tuning_table("RI", Collective::Allgather)
        .expect("table generates")
        .clone();
    assert!(!table.is_empty());
    let json = table.to_json().expect("table serializes");
    let back = TuningTable::from_json(&json).expect("round trip parses");
    assert_eq!(table, back);
}

#[test]
fn nearest_bucket_lookup_is_total() {
    let mut engine = common::mini_engine();
    let table = engine
        .tuning_table("Haswell", Collective::Alltoall)
        .expect("table generates")
        .clone();
    let index = TableIndex::new(table.entries());
    // Every query — on-grid, off-grid, absurdly large — must resolve to an
    // algorithm of the right collective that supports the queried world.
    for nodes in [1u32, 2, 3, 4, 7, 16, 100] {
        for ppn in [1u32, 2, 5, 8, 56, 200] {
            for msg in [1u64, 17, 1024, 65536, 1 << 22, 1 << 30] {
                let algo = index
                    .nearest(nodes, ppn, msg)
                    .expect("non-empty table answers every query");
                assert_eq!(algo.collective(), Collective::Alltoall);
            }
        }
    }
    // Exact grid points must return their own entry, not a neighbour.
    for e in table.entries() {
        assert_eq!(
            index.nearest(e.nodes, e.ppn, e.msg_size),
            Some(e.algorithm),
            "grid point ({}, {}, {}) resolved elsewhere",
            e.nodes,
            e.ppn,
            e.msg_size
        );
    }
}

#[test]
fn empty_table_is_the_only_none() {
    let table = TuningTable::new("Nowhere", Collective::Bcast);
    assert_eq!(TableIndex::new(table.entries()).nearest(4, 8, 1024), None);
}

#[test]
fn cross_collective_json_is_rejected() {
    let mut engine = common::mini_engine();
    let table = engine
        .tuning_table("RI", Collective::Allgather)
        .expect("table generates")
        .clone();
    // Flip only the table-level collective; the entries keep their
    // allgather algorithms, so validation must flag the mismatch.
    let sabotaged = table.to_json().expect("table serializes").replacen(
        "\"collective\": \"Allgather\"",
        "\"collective\": \"Alltoall\"",
        1,
    );
    assert!(matches!(
        TuningTable::from_json(&sabotaged),
        Err(pml_mpi::PmlError::CrossCollective { .. })
    ));
}
