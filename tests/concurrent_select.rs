//! A `Tuner` is immutable, so sharing it must change nothing: any number of
//! threads hammering one `Tuner` get exactly what a single-threaded caller
//! gets from a fresh one — same algorithm, same fallback depth, at every
//! depth. This is the concurrency contract the `pml-mpi serve` daemon leans on.

use pml_mpi::collectives::AlltoallAlgo;
use pml_mpi::{Algorithm, Collective, FallbackDepth, JobConfig, Tuner, TuningTable};

fn mixed_table() -> TuningTable {
    // A full 2x2x2 grid (the verifier's totality rule) with distinct picks
    // per message class, so different shapes resolve differently.
    let mut t = TuningTable::new("stress", Collective::Alltoall);
    for &nodes in &[2u32, 4] {
        for &ppn in &[4u32, 8] {
            t.insert(nodes, ppn, 1024, Algorithm::Alltoall(AlltoallAlgo::Bruck))
                .expect("cell inserts");
            t.insert(
                nodes,
                ppn,
                65536,
                Algorithm::Alltoall(AlltoallAlgo::Pairwise),
            )
            .expect("cell inserts");
        }
    }
    t
}

/// ≥1k lookups cycling through every fallback class: exact grid cells,
/// off-grid shapes (nearest bucket), and a collective with no table at all
/// (static default rules), each key many times over.
fn mixed_jobs() -> Vec<(Collective, JobConfig)> {
    let nodes = [2u32, 3, 4, 7];
    let ppn = [4u32, 5, 8];
    let msg = [1024usize, 1500, 65536, 7];
    (0..1200)
        .map(|i| {
            let collective = if i % 5 == 4 {
                Collective::Allgather // uncovered -> default rules
            } else {
                Collective::Alltoall
            };
            let job = JobConfig::new(nodes[i % 4], ppn[i % 3], msg[i % 4]);
            (collective, job)
        })
        .collect()
}

#[test]
fn eight_threads_get_byte_identical_selections() {
    let jobs = mixed_jobs();
    assert!(jobs.len() >= 1000);

    // Single-threaded ground truth from a fresh tuner.
    let serial_tuner = Tuner::new([mixed_table()]);
    let baseline: Vec<(Algorithm, FallbackDepth)> = jobs
        .iter()
        .map(|&(c, j)| serial_tuner.select_traced(c, j))
        .collect();
    // The baseline itself exercised every depth class.
    for want in [
        FallbackDepth::Exact,
        FallbackDepth::NearestBucket,
        FallbackDepth::DefaultRules,
    ] {
        assert!(
            baseline.iter().any(|&(_, d)| d == want),
            "job mix never produced {want:?}"
        );
    }

    // Eight threads race the full job list against one shared tuner.
    let shared = Tuner::new([mixed_table()]);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (shared, jobs, baseline) = (&shared, &jobs, &baseline);
            scope.spawn(move || {
                let got: Vec<(Algorithm, FallbackDepth)> = jobs
                    .iter()
                    .map(|&(c, j)| shared.select_traced(c, j))
                    .collect();
                assert_eq!(
                    &got, baseline,
                    "thread {t} diverged from the single-threaded baseline"
                );
            });
        }
    });
}
