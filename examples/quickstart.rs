//! Quickstart: the whole offline → online lifecycle in one page.
//!
//! A miniature two-cluster zoo keeps the run under a minute: the engine
//! micro-benchmarks the grids, trains a small Random Forest, answers a
//! point query, and emits the JSON tuning table an MPI library would load
//! at startup.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use pml_mpi::mlcore::ForestParams;
use pml_mpi::{
    by_name, Collective, DatagenConfig, EngineConfig, JobConfig, PmlError, SelectionEngine,
    TrainConfig,
};

fn main() -> Result<(), PmlError> {
    // A trimmed zoo: two real clusters, smaller benchmark grids.
    let clusters: Vec<_> = ["RI2", "Haswell"]
        .iter()
        .map(|name| {
            let mut e = by_name(name).expect("zoo cluster").clone();
            e.node_grid.truncate(3);
            e.ppn_grid.truncate(4);
            e.msg_grid = vec![64, 1024, 16384, 262144];
            e
        })
        .collect();

    let cfg = EngineConfig {
        datagen: DatagenConfig::default(),
        train: TrainConfig {
            forest: ForestParams {
                n_estimators: 30,
                seed: 7,
                ..Default::default()
            },
            top_k_features: Some(5),
        },
        cache_dir: None,
    };
    let mut engine = SelectionEngine::with_clusters(clusters, cfg);

    // Offline: benchmark + train (memoized — later calls are free).
    let model = engine.train(Collective::Allgather)?;
    println!(
        "trained on the mini-zoo; out-of-bag accuracy {:.1}%",
        model.oob_score().unwrap_or(0.0) * 100.0
    );

    // Online: a point query for a job shape the grid never benchmarked.
    let job = JobConfig::new(2, 14, 8192);
    let pick = engine.predict("Haswell", Collective::Allgather, job)?;
    println!(
        "MPI_Allgather at {}x{} with {} B messages -> {pick}",
        job.nodes, job.ppn, job.msg_size
    );

    // Deployment artifact: the per-cluster JSON tuning table.
    let table = engine.tuning_table("Haswell", Collective::Allgather)?;
    println!(
        "tuning table for Haswell: {} entries; first 120 chars of JSON:",
        table.len()
    );
    let json = table.to_json()?;
    println!("{}...", &json[..json.len().min(120)]);
    Ok(())
}
