//! Mutation harness for pml-verify: corrupt model / table JSON one
//! invariant at a time and check that verification reports the
//! matching typed error — and that no corruption class panics. The model
//! base artifact is the committed first-generation fixture as the current
//! writer prints it (its importance vector padded to today's schema).

use pml_mpi::collectives::AlltoallAlgo;
use pml_mpi::core::{verify_artifact_str, verify_model_json, ArtifactKind, VerifyErrorKind};
use pml_mpi::mlcore::{ForestIssue, ForestLoadError, RandomForest, StructureIssue};
use pml_mpi::{Algorithm, Collective, PmlError, PretrainedModel, TuningTable};
use serde_json::JsonValue;

fn obj(v: &mut JsonValue) -> &mut Vec<(String, JsonValue)> {
    match v {
        JsonValue::Object(pairs) => pairs,
        other => panic!("expected object, got {other:?}"),
    }
}

fn field<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    obj(v)
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no field `{key}`"))
}

fn arr(v: &mut JsonValue) -> &mut Vec<JsonValue> {
    match v {
        JsonValue::Array(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

/// The first-generation fixture re-serialized by the current writer: the
/// base every model mutation perturbs.
fn v2_model_json() -> String {
    let v1 = include_str!("fixtures/model_v1_allgather.json");
    PretrainedModel::from_json(v1)
        .expect("v1 fixture verifies")
        .to_json()
        .expect("model serializes")
}

/// Parse → mutate one spot in the first tree → reserialize.
fn mutate_model(f: impl FnOnce(&mut JsonValue)) -> String {
    let mut v: JsonValue = serde_json::from_str(&v2_model_json()).unwrap();
    f(&mut v);
    serde_json::to_string(&v).unwrap()
}

fn first_tree(v: &mut JsonValue) -> &mut JsonValue {
    &mut arr(field(field(v, "forest"), "trees"))[0]
}

#[test]
fn out_of_bounds_child_is_a_tree_error() {
    let json = mutate_model(|v| {
        arr(field(first_tree(v), "children"))[0] = JsonValue::UInt(9999);
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::Tree { tree: 0, .. })
    ));
}

#[test]
fn child_before_parent_is_a_tree_error() {
    // A left child pointing back at the root breaks parent-before-child
    // order (the acyclicity proof).
    let json = mutate_model(|v| {
        arr(field(first_tree(v), "children"))[0] = JsonValue::UInt(0);
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::Tree { tree: 0, .. })
    ));
}

#[test]
fn nonzero_leaf_sentinel_slot_is_a_tree_error() {
    let json = mutate_model(|v| {
        let tree = first_tree(v);
        let leaf = arr(field(tree, "feature"))
            .iter()
            .position(|f| f.as_u64() == Some(u16::MAX as u64))
            .expect("tree has a leaf");
        arr(field(tree, "children"))[2 * leaf] = JsonValue::UInt(7);
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::Tree { tree: 0, .. })
    ));
}

#[test]
fn non_simplex_leaf_distribution_is_a_tree_error() {
    let json = mutate_model(|v| {
        let leaves = arr(field(first_tree(v), "leaf_values"));
        for slot in leaves.iter_mut() {
            *slot = JsonValue::Float(0.9);
        }
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::Tree { tree: 0, .. })
    ));
}

#[test]
fn unsorted_selected_features_is_a_model_error() {
    let json = mutate_model(|v| {
        arr(field(v, "selected_features")).reverse();
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::Model(_))
    ));
}

#[test]
fn from_json_routes_through_verification() {
    // The public constructor must reject what the verifier rejects — with
    // the typed error intact under `PmlError::Verify`.
    let json = mutate_model(|v| {
        arr(field(first_tree(v), "children"))[0] = JsonValue::UInt(9999);
    });
    match PretrainedModel::from_json(&json) {
        Err(PmlError::Verify(e)) => {
            assert!(
                matches!(e.kind, VerifyErrorKind::Tree { tree: 0, .. }),
                "{e}"
            );
        }
        other => panic!("expected a verify error, got {other:?}"),
    }
}

fn total_table() -> TuningTable {
    let mut t = TuningTable::new("X", Collective::Alltoall);
    for (n, p, m, a) in [
        (2, 8, 64, AlltoallAlgo::Bruck),
        (2, 8, 65536, AlltoallAlgo::Pairwise),
        (16, 8, 64, AlltoallAlgo::ScatterDest),
        (16, 8, 65536, AlltoallAlgo::Pairwise),
    ] {
        t.insert(n, p, m, Algorithm::Alltoall(a)).unwrap();
    }
    t
}

fn mutate_table(f: impl FnOnce(&mut JsonValue)) -> String {
    let mut v: JsonValue = serde_json::from_str(&total_table().to_json().unwrap()).unwrap();
    f(&mut v);
    serde_json::to_string(&v).unwrap()
}

#[test]
fn missing_grid_cell_is_an_incomplete_grid_error() {
    let json = mutate_table(|v| {
        arr(field(v, "entries")).pop();
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::IncompleteGrid {
            nodes: 16,
            ppn: 8,
            msg_size: 65536
        })
    ));
}

#[test]
fn duplicated_grid_cell_is_a_duplicate_cell_error() {
    let json = mutate_table(|v| {
        let entries = arr(field(v, "entries"));
        let first = entries[0].clone();
        entries.push(first);
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::DuplicateCell { .. })
    ));
}

#[test]
fn foreign_collective_is_a_cross_collective_error() {
    let json = mutate_table(|v| {
        *field(v, "collective") = JsonValue::Str("Allgather".into());
    });
    assert!(matches!(
        verify_artifact_str(&json),
        Err(VerifyErrorKind::CrossCollective {
            expected: Collective::Allgather,
            got: Collective::Alltoall,
        })
    ));
}

/// The base model with its forest swapped for one hand-built tree: a
/// right-leaning chain splitting feature 0 on each threshold in turn.
/// Spliced as text, because `1e999` parses to ∞ but ∞ serializes as
/// `null`. Returns (model JSON, its `forest` object alone).
fn chain_model_json(thresholds: &[String]) -> (String, String) {
    let mut v: JsonValue = serde_json::from_str(&v2_model_json()).unwrap();
    let forest = field(&mut v, "forest");
    let k = field(forest, "n_classes").as_u64().unwrap() as usize;
    let d = field(forest, "n_features").as_u64().unwrap() as usize;
    *field(forest, "trees") = JsonValue::Str("@TREES@".into());

    let m = thresholds.len();
    let leaf = u16::MAX;
    let (mut feature, mut threshold, mut children) = (Vec::new(), Vec::new(), Vec::new());
    for (i, t) in thresholds.iter().enumerate() {
        // Split at node 2i, its left leaf at 2i + 1 (payload i).
        feature.push(format!("0,{leaf}"));
        threshold.push(format!("{t},0.0"));
        children.push(format!("{},{},{},0", 2 * i + 1, 2 * i + 2, i * k));
    }
    feature.push(leaf.to_string());
    threshold.push("0.0".into());
    children.push(format!("{},0", m * k));
    let payload = format!("1.0{}", ",0.0".repeat(k - 1));
    let tree = format!(
        r#"[{{"version":2,"feature":[{}],"threshold":[{}],"children":[{}],"leaf_values":[{}],"n_classes":{k},"raw_importance":[{}]}}]"#,
        feature.join(","),
        threshold.join(","),
        children.join(","),
        vec![payload; m + 1].join(","),
        vec!["0.0"; d].join(","),
    );
    let splice = |v: &JsonValue| {
        serde_json::to_string(v)
            .unwrap()
            .replace("\"@TREES@\"", &tree)
    };
    let forest = splice(field(&mut v, "forest"));
    (splice(&v), forest)
}

/// A forest the compiled kernel cannot quantize is rejected at every load
/// path with the typed structure error — never served on a slower path.
#[test]
fn unquantizable_forest_is_rejected_at_every_load_path() {
    let thresholds = |n: usize| (0..n).map(|i| format!("{i}.5")).collect::<Vec<_>>();
    let (model, forest) = chain_model_json(&thresholds(255));
    assert_eq!(verify_artifact_str(&model), Ok(ArtifactKind::Model));
    assert!(RandomForest::from_json(&forest).is_ok());

    let budget = StructureIssue::ThresholdBudget {
        feature: 0,
        distinct: 256,
    };
    let (model, forest) = chain_model_json(&thresholds(256));
    assert_eq!(
        verify_model_json(&model).unwrap_err(),
        VerifyErrorKind::Forest(budget.clone())
    );
    assert_eq!(
        RandomForest::from_json(&forest).unwrap_err(),
        ForestLoadError::Structure(ForestIssue {
            tree: None,
            issue: budget
        })
    );

    let non_finite = StructureIssue::NonFiniteThreshold { node: 2 };
    let (model, forest) = chain_model_json(&["0.5".into(), "1e999".into()]);
    assert_eq!(
        verify_model_json(&model).unwrap_err(),
        VerifyErrorKind::Tree {
            tree: 0,
            issue: non_finite.clone()
        }
    );
    assert_eq!(
        RandomForest::from_json(&forest).unwrap_err(),
        ForestLoadError::Structure(ForestIssue {
            tree: Some(0),
            issue: non_finite
        })
    );
    assert!(matches!(
        PretrainedModel::from_json(&model),
        Err(PmlError::Verify(_))
    ));
}

#[test]
fn pristine_artifacts_verify() {
    assert_eq!(
        verify_artifact_str(&v2_model_json()),
        Ok(ArtifactKind::Model)
    );
    assert_eq!(
        verify_artifact_str(&total_table().to_json().unwrap()),
        Ok(ArtifactKind::TuningTable)
    );
}

/// Property sweep: no truncation or byte-smash of either artifact may
/// panic — every corruption lands in `Err`, never in an abort.
#[test]
fn corrupted_bytes_never_panic() {
    for base in [v2_model_json(), total_table().to_json().unwrap()] {
        assert!(base.is_ascii(), "artifact JSON is ASCII");
        let step = (base.len() / 37).max(1);
        for cut in (0..base.len()).step_by(step) {
            if verify_artifact_str(&base[..cut]).is_ok() {
                panic!("truncation at {cut} verified");
            }
        }
        for pos in (0..base.len()).step_by(step) {
            let mut smashed = base.clone().into_bytes();
            smashed[pos] = b'Z';
            let smashed = String::from_utf8(smashed).unwrap();
            // A smash inside a string value can still be a valid artifact
            // (e.g. the cluster name); it must simply never panic.
            verify_artifact_str(&smashed).ok();
            PretrainedModel::from_json(&smashed).ok();
        }
    }
}
