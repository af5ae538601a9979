//! Shipped model artifacts outlive the code that wrote them. The fixture
//! here was trained under the first generation of forest params and the
//! 14-feature schema; loading it through the current reader must reproduce
//! the predictions the original model made, recorded alongside it at
//! capture time. It was first serialized in the pre-SoA tree layout
//! (per-node `Leaf`/`Split` enum under `"nodes"`); PR 23 rewrote its trees
//! in the SoA layout, token for token, when the reader stopped migrating
//! that one — the shorter importance vector is still as captured, so the
//! schema padding of `migrate_features` is still what every test here
//! loads through.

use pml_mpi::core::{VerifyErrorKind, N_FEATURES};
use pml_mpi::{by_name, obs, JobConfig, PmlError, PretrainedModel};

#[test]
fn v1_model_artifact_loads_and_predicts_identically() {
    let json = include_str!("fixtures/model_v1_allgather.json");
    let model = PretrainedModel::from_json(json).expect("v1 artifact loads");
    // Captured with 14 importances; the three newer features pad as zero.
    assert_eq!(model.full_importances().len(), N_FEATURES);
    assert_eq!(model.full_importances()[14..], [0.0; 3]);

    let frontera = by_name("Frontera").expect("zoo cluster");
    let jobs: Vec<JobConfig> = [1u32, 2, 3, 8, 16]
        .iter()
        .flat_map(|&n| {
            [1u32, 7, 28].iter().flat_map(move |&p| {
                (0..21)
                    .step_by(4)
                    .map(move |i| JobConfig::new(n, p, 1 << i))
            })
        })
        .collect();
    let preds: Vec<String> = model
        .predict_batch(&frontera.spec.node, &jobs)
        .iter()
        .map(|a| a.to_string())
        .collect();

    let expected: Vec<String> =
        serde_json::from_str(include_str!("fixtures/model_v1_allgather_expected.json"))
            .expect("expected predictions parse");
    assert_eq!(preds.len(), expected.len());
    assert_eq!(preds, expected);
}

#[test]
fn migrated_model_reserializes_in_current_layout() {
    let json = include_str!("fixtures/model_v1_allgather.json");
    let model = PretrainedModel::from_json(json).expect("v1 artifact loads");

    // Re-serializing writes the current (SoA, versioned) layout with the
    // padded importances, and that round-trips to an equal model.
    let rewritten = model.to_json().expect("model serializes");
    assert!(rewritten.contains("\"version\""));
    assert!(!rewritten.contains("\"Split\""));
    let back = PretrainedModel::from_json(&rewritten).expect("current layout parses");
    assert_eq!(model, back);
}

#[test]
fn model_without_analytic_features_never_pays_for_extraction() {
    // The v1 artifact selects features [0, 1, 2, 4, 5]: the analytic
    // triple (14–16) is projected away, so predicting on a layout this
    // process has never costed (16×16 appears nowhere else in this test
    // binary) must not extract a single polynomial — and must still
    // answer what it answered when the triple was computed and dropped
    // (recorded on the commit before the skip).
    let json = include_str!("fixtures/model_v1_allgather.json");
    let model = PretrainedModel::from_json(json).expect("v1 artifact loads");
    assert!(model.selected_features().iter().all(|&j| j < 14));

    let polys = || {
        let snap = obs::metrics::snapshot();
        snap.counters.get("schedcost.polys").copied().unwrap_or(0)
    };
    let before = polys();
    let frontera = by_name("Frontera").expect("zoo cluster");
    let jobs: Vec<JobConfig> = (0..=20).map(|i| JobConfig::new(16, 16, 1 << i)).collect();
    let preds: Vec<String> = model
        .predict_batch(&frontera.spec.node, &jobs)
        .iter()
        .map(|a| a.to_string())
        .collect();
    assert_eq!(
        polys(),
        before,
        "cold extraction ran for columns nobody reads"
    );

    let expected: Vec<String> = [
        ("recursive_doubling", 10),
        ("rd_communication", 6),
        ("ring", 5),
    ]
    .iter()
    .flat_map(|&(algo, n)| std::iter::repeat_n(format!("MPI_Allgather:{algo}"), n))
    .collect();
    assert_eq!(preds, expected);
}

/// The per-node layout is no longer migrated: a tree with `"nodes"` and no
/// `"version"` is a typed `Malformed` error that says which layout it is.
#[test]
fn v1_node_enum_layout_is_a_typed_error_naming_the_layout() {
    let current = include_str!("fixtures/model_v1_allgather.json");
    let at = current.find("{\"version\":2,").expect("first tree");
    let end = at
        + current[at..]
            .find("\"n_classes\"")
            .expect("first tree's tail");
    let v1 = format!(
        "{}{{\"nodes\":[{{\"Leaf\":{{\"value\":[1.0,0.0,0.0,0.0]}}}}],{}",
        &current[..at],
        &current[end..]
    );
    match PretrainedModel::from_json(&v1) {
        Err(PmlError::Verify(e)) => match &e.kind {
            VerifyErrorKind::Malformed(why) => {
                assert!(
                    why.contains("`nodes`") && why.contains("unsupported"),
                    "{why}"
                );
            }
            other => panic!("expected Malformed, got {other:?}"),
        },
        other => panic!("expected a verify error, got {other:?}"),
    }
}
