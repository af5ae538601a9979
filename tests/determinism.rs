//! End-to-end reproducibility: the whole pipeline — datagen, training,
//! tuning-table generation, serialization — must be a pure function of its
//! seeds, whatever the number of worker threads. Runs from identical
//! configs have to agree byte for byte, or cached artifacts silently
//! diverge from freshly computed ones.

mod common;

use pml_mpi::clusters::generate_cluster;
use pml_mpi::{by_name, Collective, DatagenConfig};

/// Worker counts every artifact must come out identical at: one (the
/// serial path), two, and three and eight, which on a two-CPU host force
/// interleavings and per-worker item mixes a two-worker run never shows.
/// A closure that leaves its per-worker scratch dirty shows up here.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Build `what` once at each of [`THREAD_COUNTS`] and assert every build
/// equals the one-thread build.
fn same_at_every_thread_count<T: PartialEq>(what: &str, build: impl Fn() -> T) {
    let serial = rayon::with_threads(1, &build);
    for n in &THREAD_COUNTS[1..] {
        assert!(
            rayon::with_threads(*n, &build) == serial,
            "{what} at {n} worker threads differs from the one-thread run"
        );
    }
}

/// A small but noisy datagen config: noise exercises the per-cell RNG
/// derivation, which is where nondeterminism would creep in (workers pull
/// cells in a different order run to run).
fn noisy_cfg() -> DatagenConfig {
    DatagenConfig {
        seed: 7,
        iters: 3,
        ..DatagenConfig::default()
    }
}

fn mini_entry() -> pml_mpi::ClusterEntry {
    let mut e = by_name("RI").expect("zoo cluster").clone();
    e.node_grid = vec![1, 2, 4];
    e.ppn_grid = vec![2, 8];
    e.msg_grid = vec![16, 1024, 65536];
    e
}

#[test]
fn datagen_is_identical_across_runs() {
    let entry = mini_entry();
    same_at_every_thread_count("datagen records", || {
        let records =
            generate_cluster(&entry, Collective::Alltoall, &noisy_cfg()).expect("datagen");
        // Bitwise, not just approximately: the serialized bytes too.
        let json = serde_json::to_string(&records).expect("records serialize");
        (records, json)
    });
}

#[test]
fn trained_model_json_is_byte_identical_for_identical_seeds() {
    // Training is parallel (binned trees, OOB scoring) but must stay a pure
    // function of the seed — byte-identical serialized forests.
    same_at_every_thread_count("forest JSON", || {
        common::mini_engine()
            .train(Collective::Allgather)
            .expect("training succeeds")
            .to_json()
            .expect("model serializes")
    });
}

#[test]
fn tuning_table_json_is_byte_identical_for_identical_seeds() {
    same_at_every_thread_count("tuning-table JSON", || {
        common::mini_engine()
            .tuning_table("RI", Collective::Allgather)
            .expect("table generates")
            .to_json()
            .expect("table serializes")
    });
}
