//! Shared fixtures for the integration tests: a trimmed zoo and a small
//! but real trained model, so each test exercises the genuine pipeline
//! without paying for the full 18-cluster grid.
//!
//! Each test binary compiles this module separately and uses a subset of
//! it, so unused-item lints do not apply.
#![allow(dead_code)]

use pml_mpi::mlcore::ForestParams;
use pml_mpi::{
    by_name, Collective, DatagenConfig, EngineConfig, PretrainedModel, SelectionEngine, TrainConfig,
};

pub fn mini_engine() -> SelectionEngine {
    let clusters: Vec<_> = ["RI", "Haswell"]
        .iter()
        .map(|name| {
            let mut e = by_name(name).expect("zoo cluster").clone();
            e.node_grid = vec![1, 2, 4];
            e.ppn_grid = vec![2, 8];
            e.msg_grid = vec![16, 1024, 65536];
            e
        })
        .collect();
    let cfg = EngineConfig {
        datagen: DatagenConfig::noiseless(),
        train: TrainConfig {
            forest: ForestParams {
                n_estimators: 15,
                seed: 3,
                ..Default::default()
            },
            top_k_features: Some(5),
        },
        cache_dir: None,
    };
    SelectionEngine::with_clusters(clusters, cfg)
}

pub fn mini_model(collective: Collective) -> PretrainedModel {
    let mut engine = mini_engine();
    let model = engine.train(collective).expect("training succeeds");
    (*model).clone()
}
