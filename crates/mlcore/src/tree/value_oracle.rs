//! Test-only oracle: the `serde::Value`-tree reader and printer the streamed
//! `DecisionTree::{read_json, write_json}` replaced, kept as the tree's
//! `Serialize`/`Deserialize` impls so `serde_json::{to_string, from_str}`
//! in the tests go through them. The forest's half, and the tests that hold
//! the streamed path to this one, are in `forest/value_oracle.rs`.
//!
//! Every item repeats the `#[cfg(test)]` of the `mod` line that mounts this
//! file, so that what reads the file alone — the lint's test masking, the
//! shipped-line count — sees it for what it is.

use super::{validate_nodes, DecisionTree, TreeNodes};
use serde::{DeError, Deserialize, Serialize, Value};

#[cfg(test)]
fn nodes_to_pairs(nodes: &TreeNodes) -> Vec<(String, Value)> {
    vec![
        ("version".to_string(), Value::UInt(2)),
        ("feature".to_string(), nodes.feature.to_value()),
        ("threshold".to_string(), nodes.threshold.to_value()),
        ("children".to_string(), nodes.children.to_value()),
        ("leaf_values".to_string(), nodes.leaf_values.to_value()),
    ]
}

#[cfg(test)]
fn nodes_from_pairs(pairs: &[(String, Value)]) -> Result<TreeNodes, DeError> {
    if !pairs.iter().any(|(k, _)| k == "version") {
        return Err(DeError("missing field `version`".to_string()));
    }
    let nodes = TreeNodes {
        feature: serde::__get_field(pairs, "feature")?,
        threshold: serde::__get_field(pairs, "threshold")?,
        children: serde::__get_field(pairs, "children")?,
        leaf_values: serde::__get_field(pairs, "leaf_values")?,
    };
    validate_nodes(&nodes)?;
    Ok(nodes)
}

#[cfg(test)]
impl Serialize for DecisionTree {
    fn to_value(&self) -> Value {
        let mut pairs = nodes_to_pairs(&self.nodes);
        pairs.push(("n_classes".to_string(), self.n_classes.to_value()));
        pairs.push(("raw_importance".to_string(), self.raw_importance.to_value()));
        Value::Object(pairs)
    }
}

#[cfg(test)]
impl Deserialize for DecisionTree {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| DeError::expected("DecisionTree object", v))?;
        let n_classes: usize = serde::__get_field(pairs, "n_classes")?;
        if n_classes == 0 {
            return Err(DeError("n_classes must be at least 1".to_string()));
        }
        let raw_importance: Vec<f64> = serde::__get_field(pairs, "raw_importance")?;
        let nodes = nodes_from_pairs(pairs)?;
        Ok(DecisionTree {
            nodes,
            n_classes,
            raw_importance,
        })
    }
}

/// The streamed writer against the `Value` printer on a tree no fit would
/// grow: every float form the printer special-cases, every integer width at
/// its extremes. (Fitted forests are compared in `forest/value_oracle.rs`.)
#[test]
fn streamed_writer_prints_the_oracles_bytes_on_extreme_values() {
    let floats = [
        5.0,
        0.1 + 0.2,
        1e21,
        1e-7,
        f64::MIN_POSITIVE,
        5e-324,
        -0.0,
        f64::MAX,
        -1.5,
    ];
    let mut children = vec![7u32; 2 * floats.len()];
    children[..4].copy_from_slice(&[0, 1, u32::MAX, u32::MAX - 1]);
    let mut feature = vec![3u16; floats.len()];
    feature[..3].copy_from_slice(&[0, u16::MAX - 1, u16::MAX]);
    let tree = DecisionTree {
        nodes: TreeNodes {
            feature,
            threshold: floats.to_vec(),
            children,
            leaf_values: floats.iter().rev().copied().collect(),
        },
        n_classes: usize::MAX,
        raw_importance: vec![0.0, 1.0, 1e300],
    };
    let mut w = serde_json::Writer::new();
    tree.write_json(&mut w);
    let json = w.finish();
    assert_eq!(json, serde_json::to_string(&tree).unwrap());
    for token in ["5.0,", "0.30000000000000004,", "1000000000000000000000.0,"] {
        assert!(json.contains(token), "{token} in {json}");
    }
    for token in [
        "0.0000001,",
        "-0.0,",
        "65535,",
        "4294967295,",
        "18446744073709551615",
    ] {
        assert!(json.contains(token), "{token} in {json}");
    }
    // Both readers give every bit back (`==` would let `-0.0` pass for
    // `0.0`, so compare what they print).
    let streamed = DecisionTree::read_json(&mut serde_json::Reader::new(&json)).unwrap();
    let oracle: DecisionTree = serde_json::from_str(&json).unwrap();
    for back in [streamed, oracle] {
        assert_eq!(back, tree);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
