//! Feature extraction (§V-A, extended): the 17-dimensional vector — 3
//! MPI-specific features, 11 hardware features, and 3 analytic-cost
//! features — the classifier consumes.
//!
//! On a real deployment the hardware features come from `lscpu`, `lspci`,
//! and `ibstat` via the paper's extraction script; here they are read off
//! the [`pml_simnet::NodeSpec`]. As in the paper, the HCA is represented
//! by its *underlying* link speed and width rather than a categorical
//! name, and threads-per-core is excluded (it is CPU-determined and would
//! introduce a feature dependency).
//!
//! The three analytic features are derived — never measured — from the
//! static α-β-γ cost polynomials of `pml_collectives::schedcost`: which
//! algorithm the analytic model would pick, what it predicts that pick
//! costs, and how far ahead of the runner-up it is (the gap is a
//! confidence signal: tiny gaps mean the cell is genuinely contested and
//! hardware features must disambiguate).

use crate::error::PmlError;
use crate::selectors::JobConfig;
use pml_clusters::TuningRecord;
use pml_collectives::{schedcost, Collective};
use pml_mlcore::{Dataset, Matrix};
use pml_obs::Counter;
use pml_simnet::{JobLayout, NodeSpec};

/// Tuning records converted into dataset rows across this process.
static DATASET_RECORDS: Counter = Counter::new("dataset.records");

/// Number of features (3 MPI + 11 hardware + 3 analytic).
pub const N_FEATURES: usize = 17;

/// Feature names, index-aligned with [`extract`]'s output.
pub const FEATURE_NAMES: [&str; N_FEATURES] = [
    "num_nodes",
    "ppn",
    "msg_size",
    "cpu_max_clock_ghz",
    "l3_cache_mib",
    "mem_bw_gbs",
    "core_count",
    "thread_count",
    "num_sockets",
    "numa_nodes",
    "pcie_lanes",
    "pcie_version",
    "hca_link_speed_gbps",
    "hca_link_width",
    "analytic_best_algo",
    "analytic_best_cost",
    "analytic_cost_gap",
];

/// Indices of the MPI-specific features within the vector.
pub const MPI_FEATURES: [usize; 3] = [0, 1, 2];

/// Indices of the analytic-cost features within the vector.
pub const ANALYTIC_FEATURES: [usize; 3] = [14, 15, 16];

/// The analytic triple of a cell that has no ranking.
const NO_RANKING: [f64; 3] = [-1.0, 0.0, 0.0];

/// The three analytic-cost features for one cell: predicted-best
/// algorithm (registry index; −1 when no ranking exists), its predicted
/// cost in microseconds, and the relative best-to-runner-up gap.
/// Deterministic and cached end to end (polynomials and fitted constants
/// are memoized process-wide in `schedcost`).
fn analytic(node: &NodeSpec, collective: Collective, nodes: u32, ppn: u32, msg: usize) -> [f64; 3] {
    if nodes == 0 || ppn == 0 {
        return NO_RANKING;
    }
    let ranked = schedcost::rank_static(collective, node, JobLayout::new(nodes, ppn), msg);
    match ranked.as_slice() {
        [] => NO_RANKING,
        [(best, cost)] => [best.index() as f64, cost * 1e6, 0.0],
        [(best, cost), (_, second), ..] => {
            let gap = if *cost > 0.0 {
                (second - cost) / cost
            } else {
                0.0
            };
            [best.index() as f64, cost * 1e6, gap]
        }
    }
}

/// Extract the feature vector for one job configuration of `collective`
/// on one node type.
pub fn extract(
    node: &NodeSpec,
    collective: Collective,
    nodes: u32,
    ppn: u32,
    msg_size: usize,
) -> [f64; N_FEATURES] {
    let analytic = analytic(node, collective, nodes, ppn, msg_size);
    assemble(node, nodes, ppn, msg_size, analytic)
}

/// The feature vector around an already-known analytic triple.
fn assemble(
    node: &NodeSpec,
    nodes: u32,
    ppn: u32,
    msg_size: usize,
    [best, cost, gap]: [f64; 3],
) -> [f64; N_FEATURES] {
    [
        nodes as f64,
        ppn as f64,
        msg_size as f64,
        node.cpu.max_clock_ghz,
        node.cpu.l3_cache_mib,
        node.cpu.mem_bw_gbs,
        node.cpu.cores as f64,
        node.cpu.threads as f64,
        node.cpu.sockets as f64,
        node.cpu.numa_nodes as f64,
        node.nic.pcie_lanes as f64,
        node.nic.pcie_version.number() as f64,
        node.nic.generation.lane_rate_gbps(),
        node.nic.link_width as f64,
        best,
        cost,
        gap,
    ]
}

/// Extract feature rows for a whole batch of job configurations on one
/// node type — the bulk companion of [`extract`], feeding
/// [`pml_mlcore::RandomForest::predict_batch`] during tuning-table
/// generation.
pub fn extract_batch(node: &NodeSpec, collective: Collective, jobs: &[JobConfig]) -> Matrix {
    let all: [usize; N_FEATURES] = std::array::from_fn(|j| j);
    extract_projected(node, collective, jobs, &all)
}

/// [`extract_batch`] projected onto the feature subset `keep`, one flat
/// matrix and no intermediate row vectors — what a shipped model feeds
/// its forest. The analytic triple costs a cold `schedcost` extraction
/// per never-seen layout (tens of milliseconds at a few hundred ranks),
/// so it is only derived when `keep` reads one of its columns; a model
/// that predates those features, or did not select them, gets the
/// no-ranking sentinel in columns the projection never looks at.
pub(crate) fn extract_projected(
    node: &NodeSpec,
    collective: Collective,
    jobs: &[JobConfig],
    keep: &[usize],
) -> Matrix {
    let reads_analytic = keep.iter().any(|j| ANALYTIC_FEATURES.contains(j));
    let mut out = Matrix::zeros(jobs.len(), keep.len());
    for (i, j) in jobs.iter().enumerate() {
        let analytic = if reads_analytic {
            analytic(node, collective, j.nodes, j.ppn, j.msg_size)
        } else {
            NO_RANKING
        };
        let full = assemble(node, j.nodes, j.ppn, j.msg_size, analytic);
        for (slot, &k) in out.row_mut(i).iter_mut().zip(keep) {
            // An index past the schema only comes from a corrupted artifact;
            // read it as zero rather than aborting the caller.
            *slot = full.get(k).copied().unwrap_or(0.0);
        }
    }
    out
}

/// Convert tuning records into an ML dataset for one collective.
///
/// Labels are algorithm class indices ([`pml_collectives::Algorithm::index`]);
/// hardware features are looked up in the cluster zoo by the record's
/// cluster name. Records of other collectives are skipped; a record naming
/// a cluster outside the zoo is an error.
pub fn records_to_dataset(
    records: &[TuningRecord],
    collective: Collective,
) -> Result<Dataset, PmlError> {
    let mut rows: Vec<[f64; N_FEATURES]> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for r in records {
        if r.collective != collective {
            continue;
        }
        let entry = pml_clusters::by_name(&r.cluster)
            .ok_or_else(|| PmlError::UnknownCluster(r.cluster.clone()))?;
        rows.push(extract(
            &entry.spec.node,
            collective,
            r.nodes,
            r.ppn,
            r.msg_size,
        ));
        labels.push(r.best.index());
    }
    DATASET_RECORDS.add(labels.len() as u64);
    // An all-filtered record set must still carry the 17-column shape.
    let x = if rows.is_empty() {
        Matrix::zeros(0, N_FEATURES)
    } else {
        Matrix::from_rows(rows)
    };
    // Records cross a trust boundary (benchmark caches on disk), so use the
    // checked constructor rather than the debug-assert one.
    Ok(Dataset::try_new(
        x,
        labels,
        collective.algo_count(),
        FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
    )?)
}

/// Project a dataset onto a feature subset (the paper trains the final
/// model on the top-5 features by importance to avoid overfitting).
pub fn select_features(data: &Dataset, keep: &[usize]) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..data.len())
        .map(|i| keep.iter().map(|&j| data.x.get(i, j)).collect())
        .collect();
    Dataset::new(
        Matrix::from_rows(rows),
        data.y.clone(),
        data.n_classes,
        keep.iter()
            .map(|&j| data.feature_names[j].clone())
            .collect(),
    )
}

/// Project a single feature vector onto a subset.
pub fn project(features: &[f64; N_FEATURES], keep: &[usize]) -> Vec<f64> {
    keep.iter().map(|&j| features[j]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_clusters::by_name;

    #[test]
    fn seventeen_features_named() {
        assert_eq!(FEATURE_NAMES.len(), N_FEATURES);
        let f = by_name("Frontera").unwrap();
        let v = extract(&f.spec.node, Collective::Allgather, 2, 4, 4096);
        assert_eq!(v.len(), N_FEATURES);
        assert_eq!(v[0], 2.0);
        assert_eq!(v[1], 4.0);
        assert_eq!(v[2], 4096.0);
        assert_eq!(v[12], 25.0); // EDR lane rate
                                 // Analytic tail: a valid algorithm index, a positive predicted
                                 // cost, a non-negative gap.
        assert!(v[14] >= 0.0 && v[14] < 4.0, "{v:?}");
        assert!(v[15] > 0.0, "{v:?}");
        assert!(v[16] >= 0.0, "{v:?}");
    }

    #[test]
    fn different_clusters_have_different_hardware_features() {
        let a = extract(
            &by_name("Frontera").unwrap().spec.node,
            Collective::Allgather,
            2,
            4,
            64,
        );
        let b = extract(
            &by_name("MRI").unwrap().spec.node,
            Collective::Allgather,
            2,
            4,
            64,
        );
        assert_eq!(a[..3], b[..3]); // same MPI features
        assert_ne!(a[3..14], b[3..14]); // different hardware
    }

    #[test]
    fn analytic_features_track_the_static_ranking() {
        use pml_collectives::schedcost;
        let node = &by_name("RI").unwrap().spec.node;
        let v = extract(node, Collective::Alltoall, 2, 2, 1024);
        let ranked = schedcost::rank_static(Collective::Alltoall, node, JobLayout::new(2, 2), 1024);
        assert_eq!(v[14], ranked[0].0.index() as f64);
        assert!((v[15] - ranked[0].1 * 1e6).abs() < 1e-9);
        let gap = (ranked[1].1 - ranked[0].1) / ranked[0].1;
        assert!((v[16] - gap).abs() < 1e-12);
        // Degenerate shapes cannot rank and say so with the sentinel.
        let d = extract(node, Collective::Alltoall, 0, 2, 1024);
        assert_eq!([d[14], d[15], d[16]], [-1.0, 0.0, 0.0]);
    }

    #[test]
    fn dataset_conversion_filters_and_labels() {
        use pml_clusters::{measure_cell, DatagenConfig};
        let e = by_name("RI").unwrap();
        let r1 = measure_cell(
            e,
            Collective::Allgather,
            2,
            4,
            64,
            &DatagenConfig::noiseless(),
        )
        .unwrap();
        let r2 = measure_cell(
            e,
            Collective::Alltoall,
            2,
            4,
            64,
            &DatagenConfig::noiseless(),
        )
        .unwrap();
        let d = records_to_dataset(&[r1.clone(), r2], Collective::Allgather).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.n_classes, 4);
        assert_eq!(d.y[0], r1.best.index());
        assert_eq!(d.n_features(), N_FEATURES);
    }

    #[test]
    fn unknown_cluster_is_an_error() {
        use pml_clusters::{measure_cell, DatagenConfig};
        let e = by_name("RI").unwrap();
        let mut r = measure_cell(
            e,
            Collective::Allgather,
            2,
            4,
            64,
            &DatagenConfig::noiseless(),
        )
        .unwrap();
        r.cluster = "NoSuchMachine".into();
        assert!(records_to_dataset(&[r], Collective::Allgather).is_err());
    }

    #[test]
    fn batch_extraction_matches_per_job() {
        let node = &by_name("Frontera").unwrap().spec.node;
        let jobs = vec![
            JobConfig::new(1, 2, 8),
            JobConfig::new(16, 56, 4096),
            JobConfig::new(3, 5, 1 << 20),
        ];
        let m = extract_batch(node, Collective::Allgather, &jobs);
        assert_eq!(m.rows(), jobs.len());
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(
                m.row(i),
                extract(node, Collective::Allgather, j.nodes, j.ppn, j.msg_size)
            );
        }
    }

    #[test]
    fn feature_selection_projects() {
        let f = by_name("Frontera").unwrap();
        let v = extract(&f.spec.node, Collective::Allgather, 1, 2, 8);
        let p = project(&v, &[2, 4]);
        assert_eq!(p, vec![8.0, 77.0]);
    }
}
