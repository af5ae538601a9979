//! Test-only oracle for the model artifact's load path: the document read
//! the way the derived `Deserialize` read it — tree parser, then one
//! `from_value` per field — and the tests that hold
//! [`verify_model_json`] to it. The forest's own `Value` oracle is private
//! to `pml-mlcore`'s tests (`forest/value_oracle.rs`, where the streamed
//! forest reader is held to it on fitted forests, 12 000 mutants and the
//! number corners); here the forest subtree is printed back to text and
//! handed to that reader, so what this file pins is the top level: key
//! handling, the typed error each corruption maps to, and the bytes.

use super::*;
use crate::verify::{verify_model, verify_model_json, VerifyErrorKind};
use serde::Value;

#[cfg(test)]
mod differential {
    use super::*;

    /// The artifact as the derived impl saw it, the forest still a tree.
    #[derive(Deserialize)]
    struct Document {
        collective: Collective,
        forest: Value,
        selected_features: Vec<usize>,
        full_importances: Vec<f64>,
        n_training_records: usize,
    }

    /// `∞` parses (from `1e999`) but prints as `null`: a forest subtree holding
    /// one cannot go back to text, so such a document is not comparable here.
    fn holds_non_finite(v: &Value) -> bool {
        match v {
            Value::Float(f) => !f.is_finite(),
            Value::Array(items) => items.iter().any(holds_non_finite),
            Value::Object(pairs) => pairs.iter().any(|(_, v)| holds_non_finite(v)),
            _ => false,
        }
    }

    /// `verify_model_json` as it was. `None`: not comparable (see above).
    fn oracle_model_json(s: &str) -> Option<Result<PretrainedModel, VerifyErrorKind>> {
        let malformed = |e: serde_json::Error| VerifyErrorKind::Malformed(e.to_string());
        let doc: Document = match serde_json::from_str(s) {
            Ok(doc) => doc,
            Err(e) => return Some(Err(malformed(e))),
        };
        if holds_non_finite(&doc.forest) {
            return None;
        }
        let text = serde_json::to_string(&doc.forest).expect("a Value tree always prints");
        let mut r = Reader::new(&text);
        let forest = match RandomForest::read_json(&mut r).and_then(|f| r.end().map(|()| f)) {
            Ok(forest) => forest,
            Err(e) => return Some(Err(malformed(e))),
        };
        let mut model = PretrainedModel {
            collective: doc.collective,
            forest,
            selected_features: doc.selected_features,
            full_importances: doc.full_importances,
            n_training_records: doc.n_training_records,
        };
        model.migrate_features();
        Some(verify_model(&model).map(|()| model))
    }

    /// Both load paths on one document: equal models that print the same
    /// bytes, or the same `VerifyErrorKind` variant (the same value, when it is
    /// not `Malformed`'s free text). `None` when the oracle cannot compare.
    fn assert_agrees(doc: &str) -> Option<Result<PretrainedModel, VerifyErrorKind>> {
        let streamed = verify_model_json(doc);
        let oracle = oracle_model_json(doc)?;
        match (&streamed, &oracle) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{doc}");
                assert_eq!(a.to_json().unwrap(), b.to_json().unwrap(), "{doc}");
            }
            (Err(VerifyErrorKind::Malformed(_)), Err(VerifyErrorKind::Malformed(_))) => {}
            (Err(a), Err(b)) => assert_eq!(a, b, "{doc}"),
            _ => panic!("streamed {streamed:?}\noracle {oracle:?}\non {doc}"),
        }
        Some(streamed)
    }

    fn trained(collective: Collective, forest: ForestParams) -> PretrainedModel {
        let cfg = TrainConfig {
            forest,
            top_k_features: Some(5),
        };
        PretrainedModel::train(&tests::tiny_records(collective), collective, &cfg).unwrap()
    }

    /// Three shallow trees: a document small enough to mutate 12 000 times.
    fn small_model_json() -> String {
        let forest = ForestParams {
            n_estimators: 3,
            max_depth: Some(3),
            seed: 11,
            ..Default::default()
        };
        trained(Collective::Allgather, forest).to_json().unwrap()
    }

    #[test]
    fn trained_models_of_both_collectives_load_equal_and_print_the_same_bytes() {
        for collective in Collective::PAPER {
            let forest = ForestParams {
                n_estimators: 25,
                seed: 42,
                ..Default::default()
            };
            let model = trained(collective, forest);
            let json = model.to_json().unwrap();
            // The writer's bytes are the `Value` printer's for this document.
            let tree: Value = serde_json::from_str(&json).unwrap();
            assert_eq!(serde_json::to_string(&tree).unwrap(), json);
            let back = assert_agrees(&json).expect("comparable").unwrap();
            assert_eq!(back, model);
            assert_eq!(back.to_json().unwrap(), json);
        }
    }

    /// splitmix64: a seeded stream for the mutants below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn load_path_agrees_with_the_oracle_on_seeded_mutants() {
        // Bytes that steer a JSON parser, drawn more often than the rest.
        const STEER: &[u8] = b"{}[]\",:\\ \t\n-+.eEu0919tfn";
        let base = small_model_json();
        let mut state = 0x5eed_0023_u64;
        let (mut compared, mut accepted, mut typed) = (0, 0, 0);
        for _ in 0..12_000 {
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..1 + next(&mut state) % 3 {
                let at = next(&mut state) as usize % bytes.len();
                let byte = match next(&mut state) % 8 {
                    0 => (next(&mut state) & 0xff) as u8,
                    1 => (next(&mut state) & 0x7f) as u8,
                    _ => STEER[next(&mut state) as usize % STEER.len()],
                };
                match next(&mut state) % 16 {
                    0..=3 => drop(bytes.remove(at)),
                    4..=7 => bytes.insert(at, byte),
                    8..=11 => bytes[at] = byte,
                    12 => bytes[at] ^= 1 << (next(&mut state) % 7),
                    13 => bytes.truncate(at.max(1)),
                    _ => {
                        // Move a span: reorders and duplicates keys and tokens.
                        let len = next(&mut state) as usize % (bytes.len() - at).min(64) + 1;
                        let span = bytes[at..at + len].to_vec();
                        let to = next(&mut state) as usize % (bytes.len() + 1);
                        bytes.splice(to..to, span);
                    }
                }
            }
            // Neither path takes bytes: `&str` is the API's UTF-8 check.
            let Ok(doc) = String::from_utf8(bytes) else {
                continue;
            };
            match assert_agrees(&doc) {
                None => continue,
                Some(Ok(_)) => accepted += 1,
                Some(Err(VerifyErrorKind::Malformed(_))) => {}
                Some(Err(_)) => typed += 1,
            }
            compared += 1;
        }
        assert!(
            compared >= 10_000,
            "only {compared} mutants were comparable"
        );
        // The corpus reaches all three outcomes, not just "does not parse".
        assert!(accepted > 100 && typed > 100, "{accepted} {typed}");
    }

    #[test]
    fn load_path_agrees_with_the_oracle_on_hand_written_corners() {
        let base = small_model_json();
        let forest_at = base.find("\"forest\":").unwrap();
        let tail_at = base.find(",\"selected_features\"").unwrap();
        let (head, forest, tail) = (
            &base[1..forest_at],
            &base[forest_at..tail_at],
            &base[tail_at + 1..base.len() - 1],
        );
        let value = |key: &str, with: &str| {
            let at = base.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let end = if base[at..].starts_with('[') {
                at + base[at..].find(']').unwrap() + 1
            } else {
                at + base[at..].find([',', '}']).unwrap()
            };
            format!("{}{with}{}", &base[..at], &base[end..])
        };
        let is_model = |why: &VerifyErrorKind| matches!(why, VerifyErrorKind::Model(_));
        let is_malformed = |why: &VerifyErrorKind| matches!(why, VerifyErrorKind::Malformed(_));
        type Expect<'a> = Option<&'a dyn Fn(&VerifyErrorKind) -> bool>;
        let cases: Vec<(&str, String, Expect<'_>)> = vec![
            ("pristine", base.clone(), None),
            ("permuted keys", format!("{{{tail},{forest},{head}}}").replace(",}", "}"), None),
            (
                "duplicated keys: the first wins, the rest is only skipped",
                format!("{{{head}{forest},\"forest\":[1,{{}}],\"collective\":7,{tail},\"forest\":null}}"),
                None,
            ),
            (
                "a duplicate that is not JSON",
                format!("{{{head}{forest},\"forest\":[1,{{]],{tail}}}"),
                Some(&is_malformed),
            ),
            (
                "unknown keys holding nested values",
                format!("{{\"meta\":{{\"a\":[1,[2,{{\"b\":null}}]],\"s\":\"\\u00e9\\n\"}},{head}{forest},\"z\":[],{tail}}}"),
                None,
            ),
            (
                "whitespace everywhere",
                base.replace(',', " ,\n\t")
                    .replace(':', " : ")
                    .replace('[', "[ ")
                    .replace(']', " ]")
                    .replace('{', " {\r\n")
                    .replace('}', " } "),
                None,
            ),
            ("collective missing", format!("{{{forest},{tail}}}"), Some(&is_malformed)),
            ("forest missing", format!("{{{head}{tail}}}"), Some(&is_malformed)),
            ("unknown collective", value("collective", "\"Gossip\""), Some(&is_malformed)),
            ("collective an array", value("collective", "[\"Allgather\"]"), Some(&is_malformed)),
            ("forest an array", format!("{{{head}\"forest\":[],{tail}}}"), Some(&is_malformed)),
            ("fractional feature index", value("selected_features", "[0,1.0,2,4,5]"), Some(&is_malformed)),
            ("negative feature index", value("selected_features", "[0,-1,2,4,5]"), Some(&is_malformed)),
            ("feature index past u64", value("selected_features", "[0,1,2,4,18446744073709551616]"), Some(&is_malformed)),
            ("feature index past the schema", value("selected_features", "[0,1,2,4,18446744073709551615]"), Some(&is_model)),
            ("unsorted features", value("selected_features", "[1,0,2,4,5]"), Some(&is_model)),
            ("features a scalar", value("selected_features", "5"), Some(&is_malformed)),
            ("integer tokens among the importances", value("full_importances", "[1,0,-0,0.0,0e0]"), None),
            ("null among the importances", value("full_importances", "[1.0,null]"), Some(&is_malformed)),
            ("too many importances", value("full_importances", &format!("[{}0.0]", "0.0,".repeat(N_FEATURES))), Some(&is_model)),
            ("exponent record count", value("n_training_records", "1e3"), Some(&is_malformed)),
            ("record count an array", value("n_training_records", "[36]"), Some(&is_malformed)),
            ("trailing bytes", format!("{base}]"), Some(&is_malformed)),
            ("trailing document", format!("{base} {base}"), Some(&is_malformed)),
            ("wrapped in an array", format!("[{base}]"), Some(&is_malformed)),
            ("empty", String::new(), Some(&is_malformed)),
        ];
        for (what, doc, expect) in &cases {
            let got = assert_agrees(doc).unwrap_or_else(|| panic!("{what}: not comparable"));
            match (expect, &got) {
                (None, Ok(_)) => {}
                (Some(is_expected), Err(why)) if is_expected(why) => {}
                _ => panic!("{what}: {got:?}"),
            }
        }
        // Importances written before the schema grew are padded, not refused.
        let short = assert_agrees(&value("full_importances", "[1,0,-0,0.0,0e0]"));
        assert_eq!(short.unwrap().unwrap().full_importances().len(), N_FEATURES);
    }
}
