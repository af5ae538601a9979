//! A shipped model is a JSON artifact: deserializing it must reproduce the
//! original's predictions bit for bit (the deployment path trains nothing).

mod common;

use pml_mpi::{by_name, Collective, JobConfig, PretrainedModel};

#[test]
fn model_round_trips_with_identical_predictions() {
    let model = common::mini_model(Collective::Allgather);
    let json = model.to_json().expect("model serializes");
    let back = PretrainedModel::from_json(&json).expect("model JSON parses");
    assert_eq!(model, back);

    // Identical picks on hardware the model never trained on, across a
    // sweep much wider than the training grid.
    let frontera = by_name("Frontera").expect("zoo cluster");
    let jobs: Vec<JobConfig> = [1u32, 2, 3, 8, 16, 32]
        .iter()
        .flat_map(|&n| {
            [1u32, 7, 28, 56].iter().flat_map(move |&p| {
                (0..21)
                    .step_by(3)
                    .map(move |i| JobConfig::new(n, p, 1 << i))
            })
        })
        .collect();
    assert_eq!(
        model.predict_batch(&frontera.spec.node, &jobs),
        back.predict_batch(&frontera.spec.node, &jobs)
    );
}

#[test]
fn engine_install_model_serves_the_artifact() {
    let model = common::mini_model(Collective::Alltoall);
    let json = model.to_json().expect("model serializes");

    let mut engine = common::mini_engine();
    engine.install_model(PretrainedModel::from_json(&json).expect("model JSON parses"));
    let job = JobConfig::new(4, 8, 4096);
    let from_engine = engine
        .predict("RI", Collective::Alltoall, job)
        .expect("known cluster");
    let direct = model.predict(
        &engine.entry("RI").expect("known cluster").spec.node.clone(),
        job,
    );
    assert_eq!(from_engine, direct);
}
