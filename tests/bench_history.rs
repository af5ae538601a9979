//! `BENCH_history.jsonl` holds what `BENCHMARK.json` declares: every line
//! `scripts/bench.sh` assembles — and every line already committed — is one
//! JSON object carrying each declared workload with the seven declared
//! end-to-end metrics and a per-layer ledger.

use serde_json::JsonValue;
use std::path::Path;
use std::process::Command;

/// Last lines of a `--trace 0` and a `--trace 1` benchmark run (the ledger
/// cut to two rows).
const E2E_LINE: &str = r#"{"correct":true,"attempted":544,"failed":0,"metrics":{"setup_s":{"value":3.03,"unit":"s"},"ops_per_s":{"value":132.49,"unit":"1/s"},"op_p50_ms":{"value":7.46,"unit":"ms"},"cpu_ms_per_op":{"value":3.09,"unit":"ms"},"peak_rss_mib":{"value":26.11,"unit":"MiB"},"top1_acc":{"value":0.8938938938938938,"unit":"share"},"mean_slowdown":{"value":1.016699409628573,"unit":"ratio"}}}"#;
const LAYER_LINE: &str = r#"{"correct":true,"attempted":544,"failed":0,"metrics":{"serve.parse_request_ns":{"value":212.5,"unit":"ns"},"bench.ledger_closure_share":{"value":0.99,"unit":"share"}}}"#;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn keys(v: &JsonValue) -> Vec<&str> {
    let obj = v.as_object().expect("an object");
    obj.iter().map(|(k, _)| k.as_str()).collect()
}

fn get<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    let hit = v.as_object().and_then(|o| o.iter().find(|(k, _)| k == key));
    &hit.unwrap_or_else(|| panic!("no {key:?} field")).1
}

/// The `name`s listed under `section` of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let doc: JsonValue = serde_json::from_str(&text).unwrap();
    let items = get(&doc, section).as_array().expect("a list");
    let name = |m| get(m, "name").as_str().unwrap().to_string();
    items.iter().map(name).collect()
}

/// One history line against the contract: every declared workload, each
/// with the declared end-to-end metrics and the `layers` ledger rows.
fn check_line(line: &str, layers: &[String]) {
    let rec: JsonValue = serde_json::from_str(line).expect("a history line is one JSON value");
    assert_eq!(keys(&rec), ["rev", "date", "machine", "workloads"]);
    assert_eq!(keys(get(&rec, "machine")), ["cpu", "nproc", "kernel"]);
    let workloads = get(&rec, "workloads");
    assert_eq!(keys(workloads), declared("workloads"));
    for name in declared("workloads") {
        let w = get(workloads, &name);
        assert_eq!(keys(w), ["end_to_end", "per_layer"], "{name}");
        assert_eq!(keys(get(w, "end_to_end")), declared("end_to_end"));
        assert_eq!(keys(get(w, "per_layer")), layers, "{name}");
    }
}

#[test]
fn bench_sh_assembles_one_line_matching_the_contract() {
    let out = Command::new("bash")
        .current_dir(std::env::temp_dir())
        .arg("-c")
        .arg(r#"source "$1" && record abc1234+ 2026-01-01T00:00:00Z "${@:2}""#)
        .arg("bench_history")
        .arg(root().join("scripts/bench.sh"))
        .arg(r#"{"cpu":"Some CPU @ 2.20GHz","nproc":2,"kernel":"6.1.0"}"#)
        .args([E2E_LINE, LAYER_LINE].repeat(4))
        .output()
        .expect("bash runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.matches('\n').count(), 1, "one line: {text}");
    assert!(text.ends_with("}}\n"));
    let layers = ["serve.parse_request_ns", "bench.ledger_closure_share"];
    check_line(&text, &layers.map(String::from));
    // The numbers are copied, not re-rendered.
    assert!(text.contains(r#""top1_acc":{"value":0.8938938938938938,"unit":"share"}"#));
}

#[test]
fn committed_history_lines_match_the_contract() {
    let text = std::fs::read_to_string(root().join("BENCH_history.jsonl")).unwrap();
    assert!(!text.is_empty() && text.ends_with('\n'));
    for line in text.lines() {
        check_line(line, &declared("per_layer"));
    }
}
