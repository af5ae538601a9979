//! Test-only oracle: the `serde::Value`-tree reader and printer the streamed
//! `RandomForest::{read_json, write_json}` replaced (the trees' half is in
//! `tree/value_oracle.rs`), kept as `Serialize`/`Deserialize` impls so
//! `serde_json::{to_string, from_str}` in the tests go through them — and
//! the tests that hold the streamed path to them: the same forest or the
//! same rejection from every document, the same bytes from every forest.
//!
//! Every item repeats the `#[cfg(test)]` of the `mod` line that mounts this
//! file, so that what reads the file alone — the lint's test masking, the
//! shipped-line count — sees it for what it is.

use super::*;
use serde::{DeError, Value};

#[cfg(test)]
impl Serialize for RandomForest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("params".to_string(), self.params.to_value()),
            ("trees".to_string(), self.trees.to_value()),
            ("n_classes".to_string(), self.n_classes.to_value()),
            ("n_features".to_string(), self.n_features.to_value()),
            ("oob_score".to_string(), self.oob_score.to_value()),
        ])
    }
}

#[cfg(test)]
impl Deserialize for RandomForest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| DeError::expected("struct RandomForest", v))?;
        Ok(RandomForest {
            params: serde::__get_field(pairs, "params")?,
            trees: serde::__get_field(pairs, "trees")?,
            n_classes: serde::__get_field(pairs, "n_classes")?,
            n_features: serde::__get_field(pairs, "n_features")?,
            oob_score: serde::__get_field(pairs, "oob_score")?,
            compiled: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod differential {
    use super::*;

    /// `RandomForest::from_json` as it was: tree parser, `from_value`, `verify`.
    fn oracle_from_json(s: &str) -> Result<RandomForest, ForestLoadError> {
        let forest: RandomForest =
            serde_json::from_str(s).map_err(|e| ForestLoadError::Parse(e.to_string()))?;
        forest.verify().map_err(ForestLoadError::Structure)?;
        Ok(forest)
    }

    fn to_json(f: &RandomForest) -> String {
        let mut w = Writer::new();
        f.write_json(&mut w);
        w.finish()
    }

    /// Both loaders on one document: equal forests that print the same bytes
    /// (`==` alone would let `-0.0` pass for `0.0`), or the same rejection —
    /// the same located issue when the structure is at fault, a parse error
    /// from both when the text is. Returns what they agreed on.
    fn assert_agrees(doc: &str) -> Result<RandomForest, ForestLoadError> {
        let (streamed, oracle) = (RandomForest::from_json(doc), oracle_from_json(doc));
        match (&streamed, &oracle) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{doc}");
                assert_eq!(to_json(a), serde_json::to_string(b).unwrap(), "{doc}");
            }
            (Err(ForestLoadError::Parse(_)), Err(ForestLoadError::Parse(_))) => {}
            (Err(a), Err(b)) => assert_eq!(a, b, "{doc}"),
            _ => panic!("streamed {streamed:?}\noracle {oracle:?}\non {doc}"),
        }
        streamed
    }

    /// `k` classes over `d` features, some informative, some noise.
    fn data(n: usize, d: usize, k: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..8.0)).collect())
            .collect();
        let y = rows
            .iter()
            .map(|r| (r[0] + 0.5 * r[1 % d]) as usize % k)
            .collect();
        (Matrix::from_rows(rows), y)
    }

    fn fitted(params: ForestParams, d: usize, k: usize) -> RandomForest {
        let (x, y) = data(300, d, k, params.seed);
        let mut f = RandomForest::new(params);
        f.fit(&x, &y, k).unwrap();
        f
    }

    /// Three shallow trees: a document small enough to mutate 12 000 times.
    fn small_forest_json() -> String {
        to_json(&fitted(
            ForestParams {
                n_estimators: 3,
                max_depth: Some(3),
                seed: 5,
                ..Default::default()
            },
            3,
            3,
        ))
    }

    #[test]
    fn streamed_reader_and_writer_match_the_oracle_on_fitted_forests() {
        let shapes = [
            // The shipped shape: deep trees, OOB score, `max_depth: null`.
            (
                ForestParams {
                    n_estimators: 30,
                    seed: 42,
                    ..Default::default()
                },
                5,
                6,
            ),
            // No bootstrap: `oob_score: null`; a depth cap: `max_depth: 4`.
            (
                ForestParams {
                    n_estimators: 7,
                    max_depth: Some(4),
                    bootstrap: false,
                    max_features: MaxFeatures::Count(2),
                    seed: 9,
                    ..Default::default()
                },
                3,
                2,
            ),
        ];
        for (params, d, k) in shapes {
            let f = fitted(params, d, k);
            let json = to_json(&f);
            assert_eq!(json, serde_json::to_string(&f).unwrap());
            assert_eq!(json.contains("\"oob_score\":null"), !params.bootstrap);
            assert_eq!(
                json.contains("\"max_depth\":null"),
                params.max_depth.is_none()
            );
            let back = assert_agrees(&json).unwrap();
            assert_eq!(back, f);
            assert_eq!(to_json(&back), json);
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
    fn streamed_reader_agrees_with_the_oracle_on_seeded_mutants() {
        // Bytes that steer a JSON parser, drawn more often than the rest.
        const STEER: &[u8] = b"{}[]\",:\\ \t\n-+.eEu0919tfn";
        let base = small_forest_json();
        let mut state = 0x5eed_0017_u64;
        let (mut compared, mut accepted, mut structural) = (0, 0, 0);
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
            // Neither loader takes bytes: `&str` is the API's UTF-8 check.
            let Ok(doc) = String::from_utf8(bytes) else {
                continue;
            };
            compared += 1;
            match assert_agrees(&doc) {
                Ok(_) => accepted += 1,
                Err(ForestLoadError::Structure(_)) => structural += 1,
                Err(ForestLoadError::Parse(_)) => {}
            }
        }
        assert!(
            compared >= 10_000,
            "only {compared} mutants were comparable"
        );
        // The corpus reaches all three outcomes, not just "does not parse".
        assert!(
            accepted > 100 && structural > 100,
            "{accepted} {structural}"
        );
    }

    /// One hand-made edit of the small forest's text per row; `Some(ok)` where
    /// the outcome is part of the contract, `None` where agreeing is all.
    #[test]
    fn streamed_reader_agrees_with_the_oracle_on_hand_written_corners() {
        let base = small_forest_json();
        let first = |key: &str| {
            let at = base.find(key).unwrap_or_else(|| panic!("no {key}")) + key.len();
            let end = at + base[at..].find([',', ']']).unwrap();
            (at, end)
        };
        // Replace the first element of the first array under `key`.
        let element = |key: &str, with: &str| {
            let (at, end) = first(&format!("\"{key}\":["));
            format!("{}{with}{}", &base[..at], &base[end..])
        };
        // Replace the whole first value under `key` (a scalar or an array).
        let value = |key: &str, with: &str| {
            let at = base.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let end = if base[at..].starts_with('[') {
                at + base[at..].find(']').unwrap() + 1
            } else {
                at + base[at..].find([',', '}']).unwrap()
            };
            format!("{}{with}{}", &base[..at], &base[end..])
        };
        let tree0 = base.find("{\"version\"").unwrap();
        let cases: Vec<(&str, String, Option<bool>)> = vec![
            ("pristine", base.clone(), Some(true)),
            // Keys in another order: forest level and tree level.
            (
                "permuted keys",
                {
                    let (params_at, trees_at) = (
                        base.find("\"params\"").unwrap(),
                        base.find("\"trees\"").unwrap(),
                    );
                    let tail = base.find("\"n_classes\":3,\"n_features\"").unwrap();
                    format!(
                        "{{{},{}{}",
                        &base[trees_at..tail - 1],
                        &base[params_at..trees_at],
                        &base[tail..]
                    )
                },
                Some(true),
            ),
            (
                "tree keys reversed",
                base.replacen("{\"version\":2,", "{", 1).replacen(
                    "],\"n_classes\":3,\"raw_importance\"",
                    "],\"version\":2,\"n_classes\":3,\"raw_importance\"",
                    1,
                ),
                Some(true),
            ),
            // The first occurrence of a repeated key wins; the rest is skipped
            // whatever it holds, as long as it is JSON.
            (
                "duplicated keys",
                base.replacen(
                    "\"n_features\":3",
                    "\"n_features\":3,\"n_features\":\"x\",\"trees\":7",
                    1,
                )
                .replacen("\"feature\":[", "\"n_classes\":3,\"feature\":[", 1)
                .replacen("\"children\":[", "\"feature\":null,\"children\":[", 1),
                Some(true),
            ),
            (
                "duplicate that wins is wrong",
                base.replacen("\"n_features\":3", "\"n_features\":4,\"n_features\":3", 1),
                Some(false),
            ),
            (
                "duplicate that is not JSON",
                base.replacen("\"n_features\":3", "\"n_features\":3,\"n_features\":01x", 1),
                Some(false),
            ),
            (
                "unknown keys holding nested values",
                format!(
                    "{}\"x\":{{\"a\":[1,{{\"b\":[[],{{}}]}},\"s\\\"\\u00e9\"],\"c\":-1.5e-3}},{}",
                    &base[..tree0 + 1],
                    &base[tree0 + 1..]
                )
                .replacen(
                    "\"params\":",
                    "\"extra\":[null,true,false],\"params\":",
                    1,
                ),
                Some(true),
            ),
            (
                "whitespace everywhere",
                base.replace(',', " ,\n\t")
                    .replace(':', " : ")
                    .replace('[', "[ ")
                    .replace(']', " ]")
                    .replace('{', " {\r\n")
                    .replace('}', " } "),
                Some(true),
            ),
            ("65536 in feature", element("feature", "65536"), Some(false)),
            ("65535 in feature", element("feature", "65535"), None),
            (
                "4294967296 in children",
                element("children", "4294967296"),
                Some(false),
            ),
            (
                "4294967295 in children",
                element("children", "4294967295"),
                Some(false),
            ),
            ("negative index", element("children", "-1"), Some(false)),
            ("negative zero index", element("children", "-0"), None),
            ("fractional index", element("children", "1.0"), Some(false)),
            ("exponent index", element("feature", "1e0"), Some(false)),
            ("leading zeros", element("children", "001"), Some(true)),
            (
                "integer token in a float array",
                element("threshold", "3"),
                Some(true),
            ),
            (
                "negative integer in a float array",
                element("threshold", "-3"),
                Some(true),
            ),
            (
                "-0 in a float array",
                element("threshold", "-0"),
                Some(true),
            ),
            ("-0.0", element("threshold", "-0.0"), Some(true)),
            ("1e999", element("threshold", "1e999"), Some(false)),
            ("1E-7", element("threshold", "1E-7"), Some(true)),
            ("subnormal", element("threshold", "4.9e-324"), Some(true)),
            (
                "huge integer",
                element("threshold", "123456789012345678901234567890"),
                Some(true),
            ),
            ("bare dot", element("threshold", "1."), Some(true)),
            (
                "null in a float array",
                element("threshold", "null"),
                Some(false),
            ),
            (
                "string in a float array",
                element("leaf_values", "\"1.0\""),
                Some(false),
            ),
            (
                "array where a scalar is expected",
                value("n_classes", "[3]"),
                Some(false),
            ),
            (
                "object where a scalar is expected",
                value("n_features", "{}"),
                Some(false),
            ),
            (
                "scalar where an array is expected",
                value("feature", "7"),
                Some(false),
            ),
            (
                "null where an array is expected",
                {
                    let at = base.find("\"trees\":").unwrap() + 8;
                    let end = base.find(",\"n_classes\":3,\"n_features\"").unwrap();
                    format!("{}null{}", &base[..at], &base[end..])
                },
                Some(false),
            ),
            (
                "array where the forest is expected",
                format!("[{base}]"),
                Some(false),
            ),
            (
                "oob_score missing",
                base.replacen(",\"oob_score\":", ",\"was_oob_score\":", 1),
                Some(true),
            ),
            (
                "oob_score a string",
                value("oob_score", "\"high\""),
                Some(false),
            ),
            (
                "n_classes zero in a tree",
                base.replacen("\"n_classes\":3", "\"n_classes\":0", 1),
                Some(false),
            ),
            (
                "params missing",
                base.replacen("\"params\":", "\"was_params\":", 1),
                Some(false),
            ),
            (
                "version missing",
                base.replacen("\"version\":2,", "", 1),
                Some(false),
            ),
            (
                "version of any value",
                base.replacen("\"version\":2", "\"version\":\"two\"", 1),
                Some(true),
            ),
            ("trailing bytes", format!("{base}x"), Some(false)),
            ("trailing document", format!("{base}{{}}"), Some(false)),
            ("trailing whitespace", format!(" {base}\n"), Some(true)),
            (
                "trailing comma in an array",
                value("raw_importance", "[0.0,0.0,0.0,]"),
                Some(false),
            ),
            ("empty", String::new(), Some(false)),
        ];
        for (what, doc, expect) in &cases {
            let got = assert_agrees(doc);
            if let Some(ok) = expect {
                assert_eq!(got.is_ok(), *ok, "{what}: {got:?}");
            }
        }
        // The per-node layout names itself in the error.
        let v1 = base.replacen(
            "\"version\":2,",
            "\"nodes\":[{\"Leaf\":{\"value\":[1.0]}}],",
            1,
        );
        match assert_agrees(&v1) {
            Err(ForestLoadError::Parse(why)) => assert!(why.contains("`nodes` layout"), "{why}"),
            other => panic!("{other:?}"),
        }
    }
}
