//! End-to-end reproducibility: the whole pipeline — datagen, training,
//! tuning-table generation, serialization — must be a pure function of its
//! seeds, whatever the number of worker threads. Runs from identical
//! configs have to agree byte for byte, or cached artifacts silently
//! diverge from freshly computed ones.

mod common;

use pml_mpi::clusters::{generate_cluster, measure_cell};
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

/// Worlds of 3 to 24 ranks, most not powers of two: recursive doubling
/// drops out of some shapes' algorithm lists and not others, and two
/// shapes (2×6 and 4×3) tie on world size.
fn uneven_entry() -> pml_mpi::ClusterEntry {
    let mut e = by_name("RI").expect("zoo cluster").clone();
    e.node_grid = vec![1, 2, 4];
    e.ppn_grid = vec![3, 4, 6];
    e.msg_grid = vec![16, 1000, 65536];
    e
}

#[test]
fn datagen_on_uneven_worlds_is_the_cell_path_at_every_thread_count() {
    let entry = uneven_entry();
    for cfg in [noisy_cfg(), DatagenConfig::noiseless()] {
        for coll in Collective::ALL {
            let build = || generate_cluster(&entry, coll, &cfg).expect("datagen");
            let records = build();
            assert_eq!(records.len(), entry.grid_size());
            for r in &records {
                let cell = measure_cell(&entry, coll, r.nodes, r.ppn, r.msg_size, &cfg);
                assert_eq!(
                    &cell.expect("cell"),
                    r,
                    "{coll} {}x{} {}",
                    r.nodes,
                    r.ppn,
                    r.msg_size
                );
            }
            same_at_every_thread_count(&format!("{coll} datagen records"), build);
        }
    }
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

/// FNV-1a, 64-bit, over a document's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The trained models' bytes, pinned to values recorded before the grower
/// scanned only occupied bins: a change to a tree, the preliminary
/// forest's importances (`full_importances`) or the final forest's
/// `oob_score` fails here, not only in the benchmark's `artifact_fnv`.
#[test]
fn trained_model_json_matches_recorded_digests() {
    let digest = |c| fnv1a(&common::mini_model(c).to_json().expect("model serializes"));
    assert_eq!(
        [digest(Collective::Allgather), digest(Collective::Alltoall)],
        [0x36fe_242d_1b86_4181, 0x7c89_cf5f_3963_265b]
    );
}
