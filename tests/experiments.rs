//! `EXPERIMENTS.json` is what `pml-bench` last printed, and EXPERIMENTS.md
//! quotes nothing else: every measured number in the document carries the
//! finding it was copied from (`77.5<!--table2:rf_pct.MPI_Allgather-->`), and
//! the shape claims its verdicts rest on hold on the committed numbers.

use serde_json::JsonValue;
use std::path::Path;

fn read(file: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file)).unwrap()
}

fn committed() -> JsonValue {
    serde_json::from_str(&read("EXPERIMENTS.json")).expect("EXPERIMENTS.json parses")
}

fn keys(v: &JsonValue) -> Vec<&str> {
    let obj = v.as_object().expect("an object");
    obj.iter().map(|(k, _)| k.as_str()).collect()
}

/// A finding of one experiment, from whichever half of the file has it.
fn finding(doc: &JsonValue, name: &str, key: &str) -> f64 {
    let lookup = |half| {
        doc.get(half)?
            .get(name)?
            .get("findings")?
            .get(key)?
            .as_f64()
    };
    lookup("experiments")
        .or_else(|| lookup("wall_clock"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.json has no finding {name}:{key}"))
}

#[test]
fn the_file_has_exactly_one_entry_per_experiment() {
    let doc = committed();
    assert_eq!(keys(&doc), ["experiments", "wall_clock"]);
    let names: Vec<&str> = pml_bench::EXPERIMENTS.iter().map(|e| e.0).collect();
    assert_eq!(keys(doc.get("experiments").unwrap()), names);
    for (name, entry) in doc.get("experiments").unwrap().as_object().unwrap() {
        assert_eq!(keys(entry), ["tables", "findings"], "{name}");
    }
    for name in keys(doc.get("wall_clock").unwrap()) {
        assert!(names.contains(&name), "wall_clock entry {name}");
    }
}

#[test]
fn every_number_experiments_md_quotes_is_a_committed_finding() {
    let (doc, text) = (committed(), read("EXPERIMENTS.md"));
    let mut quoted = std::collections::BTreeSet::new();
    let mut rest = text.as_str();
    while let Some((before, after)) = rest.split_once("<!--") {
        let (marker, tail) = after.split_once("-->").expect("a closed marker");
        rest = tail;
        let (name, key) = marker.split_once(':').expect("<!--experiment:finding-->");
        // The quoted value is the number the marker is glued to.
        let start = before
            .char_indices()
            .rev()
            .take_while(|(_, c)| c.is_ascii_digit() || ".+-−".contains(*c))
            .last()
            .unwrap_or_else(|| panic!("no number before <!--{marker}-->"));
        let number = before[start.0..].replace('−', "-");
        let decimals = number.split_once('.').map_or(0, |(_, frac)| frac.len());
        let value = finding(&doc, name, key);
        assert_eq!(
            number.trim_start_matches('+'),
            format!("{value:.decimals$}"),
            "EXPERIMENTS.md quotes {number} for {marker}, EXPERIMENTS.json has {value}"
        );
        quoted.insert(name.to_string());
    }
    // Nothing that has findings goes unquoted.
    for (name, _) in pml_bench::EXPERIMENTS {
        let halves = ["experiments", "wall_clock"].map(|half| doc.get(half)?.get(name));
        let has_findings = halves
            .iter()
            .flatten()
            .any(|entry| !keys(entry.get("findings").unwrap()).is_empty());
        assert_eq!(quoted.contains(*name), has_findings, "{name}");
    }
}

#[test]
fn the_verdicts_shape_claims_hold_on_the_committed_numbers() {
    let doc = committed();
    for coll in ["MPI_Allgather", "MPI_Alltoall"] {
        // Table II: RF ≥ GBM > KNN, SVM.
        let acc = |model: &str| finding(&doc, "table2", &format!("{model}_pct.{coll}"));
        assert!(acc("rf") >= acc("gbm"), "{coll}");
        assert!(acc("gbm") > acc("knn") && acc("gbm") > acc("svm"), "{coll}");
        // Table III: a random split is no harder than unseen clusters.
        let split = |kind: &str| finding(&doc, "table3", &format!("{kind}_pct.{coll}"));
        assert!(split("random") >= split("cluster"), "{coll}");
        // Figs. 8–9: proposed ≥ MVAPICH default ≫ random, in geomean.
        for shape in ["16x56", "16x28"] {
            let key = format!("geomean_pct.Frontera.{coll}.{shape}");
            assert!(finding(&doc, "fig09", &key) >= 0.0, "{key}");
        }
        let key = format!("geomean_x.Frontera.{coll}.16x56");
        assert!(finding(&doc, "fig08", &key) >= 2.0, "{key}");
    }
    // Fig. 7: the proposed framework's core-hours do not depend on node count.
    let fig07 = doc.get("wall_clock").unwrap().get("fig07").unwrap();
    let table = &fig07.get("tables").unwrap().as_array().unwrap()[0];
    let rows = table.get("rows").unwrap().as_array().unwrap();
    let proposed: Vec<&JsonValue> = rows
        .iter()
        .map(|row| row.as_array().unwrap().last().unwrap())
        .collect();
    assert_eq!(proposed.len(), 7);
    assert!(
        proposed.iter().all(|cell| *cell == proposed[0]),
        "{proposed:?}"
    );
}
