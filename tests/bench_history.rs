//! `BENCH_history.jsonl` holds what `BENCHMARK.json` declares, in two
//! record kinds. Every line `scripts/bench.sh` assembles is one JSON object
//! carrying each declared workload with the seven declared end-to-end
//! metrics and a per-layer ledger; every line `scripts/ab.sh` assembles
//! (`"kind":"ab"`) carries, per workload it ran, each declared end-to-end
//! metric's parent and change medians, the change's wins and the per-pair
//! ratios, and, when it ran traced pairs, the medians and wins of every
//! declared ledger row. Every line already committed is one of the two.

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
    v.get(key).unwrap_or_else(|| panic!("no {key:?} field"))
}

/// The `name`s listed under `section` of `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
    let doc: JsonValue = serde_json::from_str(&text).unwrap();
    let items = get(&doc, section).as_array().expect("a list");
    let name = |m| get(m, "name").as_str().unwrap().to_string();
    items.iter().map(name).collect()
}

/// One history line against the contract: a paired line (see
/// [`check_ab_line`]) or a single run's, which carries every declared
/// workload, each with the declared end-to-end metrics and the `layers`
/// ledger rows.
fn check_line(line: &str, layers: &[String]) {
    let rec: JsonValue = serde_json::from_str(line).expect("a history line is one JSON value");
    if keys(&rec).first() == Some(&"kind") {
        return check_ab_line(&rec);
    }
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

/// A paired line: both revs, the pair count, and for each workload it ran
/// (declared ones, in declared order) every declared end-to-end metric's
/// two medians and wins, the failed ops and whether the digests agreed.
/// A line with a `trace_pairs` count also carries every declared ledger
/// row's two medians and wins under `per_layer`; lines without one are
/// the older shape and stay valid. Newer lines also keep each end-to-end
/// metric's per-pair change ÷ parent `ratios`; older ones stay valid.
fn check_ab_line(rec: &JsonValue) {
    let traced = keys(rec).contains(&"trace_pairs");
    let mut fields = vec!["kind", "parent", "change", "date", "machine", "pairs"];
    if traced {
        fields.push("trace_pairs");
    }
    fields.push("workloads");
    assert_eq!(keys(rec), fields);
    assert_eq!(get(rec, "kind").as_str(), Some("ab"));
    assert_eq!(keys(get(rec, "machine")), ["cpu", "nproc", "kernel"]);
    let pairs = get(rec, "pairs").as_u64().expect("a pair count");
    let ran = keys(get(rec, "workloads"));
    let declared_workloads = declared("workloads");
    assert!(!ran.is_empty());
    assert!(ran.windows(2).all(|w| {
        let at = |n| declared_workloads.iter().position(|d| d == n);
        at(w[0]) < at(w[1])
    }));
    // Every metric of `section` with its two medians, at most `pairs` wins
    // and, on lines that keep them, its `pairs` per-pair ratios.
    let check_medians = |name: &str, section: &JsonValue, declared: Vec<String>, pairs: u64| {
        assert_eq!(keys(section), declared, "{name}");
        for metric in declared {
            let m = get(section, &metric);
            let fields = keys(m);
            assert_eq!(fields[..3], ["parent", "change", "wins"], "{name} {metric}");
            assert!(get(m, "parent").as_f64().is_some() && get(m, "change").as_f64().is_some());
            assert!(get(m, "wins").as_u64().is_some_and(|w| w <= pairs));
            if fields.len() > 3 {
                assert_eq!(fields[3..], ["ratios"], "{name} {metric}");
                let ratios = get(m, "ratios").as_array().expect("a list");
                assert_eq!(ratios.len() as u64, pairs, "{name} {metric}");
                assert!(
                    ratios.iter().all(|r| r.as_f64().is_some()),
                    "{name} {metric}"
                );
            }
        }
    };
    for name in ran {
        assert!(declared_workloads.iter().any(|d| d == name), "{name}");
        let w = get(get(rec, "workloads"), name);
        if traced {
            assert_eq!(
                keys(w),
                ["end_to_end", "per_layer", "failed", "fnv_equal"],
                "{name}"
            );
            let trace_pairs = get(rec, "trace_pairs").as_u64().expect("a pair count");
            check_medians(
                name,
                get(w, "per_layer"),
                declared("per_layer"),
                trace_pairs,
            );
        } else {
            assert_eq!(keys(w), ["end_to_end", "failed", "fnv_equal"], "{name}");
        }
        assert!(get(w, "failed").as_u64().is_some() && get(w, "fnv_equal").as_bool().is_some());
        check_medians(name, get(w, "end_to_end"), declared("end_to_end"), pairs);
    }
}

/// Run ab.sh's `summarize` over `readings` at `pairs` timed and
/// `trace_pairs` traced pairs; returns the history line it wrote.
fn summarize(pairs: usize, trace_pairs: usize, readings: &str) -> String {
    let record = std::env::temp_dir().join(format!(
        "ab_record_{}_{trace_pairs}.jsonl",
        std::process::id()
    ));
    let machine = r#"{"cpu":"Some CPU @ 2.20GHz","nproc":2,"kernel":"6.1.0"}"#;
    let mut child = Command::new("bash")
        .current_dir(std::env::temp_dir())
        .arg("-c")
        .arg(
            r#"source "$1" && summarize "$4" "$5" "$2" abc1234 def5678+ 2026-01-01T00:00:00Z "$3""#,
        )
        .arg("bench_history")
        .arg(root().join("scripts/ab.sh"))
        .arg(&record)
        .arg(machine)
        .arg(pairs.to_string())
        .arg(trace_pairs.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("bash runs");
    use std::io::Write;
    child
        .stdin
        .take()
        .unwrap()
        .write_all(readings.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&record).expect("summarize writes the record");
    std::fs::remove_file(&record).ok();
    assert_eq!(text.matches('\n').count(), 1, "one line: {text}");
    check_line(&text, &[]);
    text
}

/// Three timed pairs of every workload: the quality metrics read 1 in
/// every run, the timings 10, 11, 12 — except `op_p50_ms` reading 9, 12, 8
/// on the change side (two wins, lower being better, and a median of 9).
fn timed_readings() -> String {
    let mut readings = String::new();
    for w in declared("workloads") {
        for side in ["parent", "change"] {
            for (i, (p, c)) in [(10, 9), (11, 12), (12, 8)].into_iter().enumerate() {
                let i = i + 1;
                readings += &format!("{w} {side} {i} failed 0\n{w} {side} {i} fnv ab12,cd34\n");
                for m in declared("end_to_end") {
                    let v = match m.as_str() {
                        "top1_acc" | "mean_slowdown" => 1,
                        "op_p50_ms" if side == "change" => c,
                        _ => p,
                    };
                    readings += &format!("{w} {side} {i} {m} {v}\n");
                }
            }
        }
    }
    readings
}

#[test]
fn ab_sh_assembles_one_paired_line_matching_the_contract() {
    let text = summarize(3, 0, &timed_readings());
    assert!(text.starts_with(
        r#"{"kind":"ab","parent":"abc1234","change":"def5678+","date":"2026-01-01T00:00:00Z","machine":{"cpu":"Some CPU @ 2.20GHz","nproc":2,"kernel":"6.1.0"},"pairs":3,"workloads":{"pretrain":{"end_to_end":{"setup_s":{"parent":11,"change":11,"wins":0,"ratios":[1,1,1]},"#
    ));
    assert!(text.contains(
        r#""op_p50_ms":{"parent":11,"change":9,"wins":2,"ratios":[0.9,1.09091,0.666667]}"#
    ));
    assert!(text.ends_with("},\"failed\":0,\"fnv_equal\":true}}}\n"));
}

#[test]
fn ab_sh_prints_the_sign_test_interval_of_the_pair_ratios() {
    // Ten pairs: `op_p50_ms` reads 100 on the parent and 41, 42, …, 50 on
    // the change (ratios 0.41 … 0.50 in some order), so the median ratio is
    // 0.455 and the sign-test interval the 2nd and 9th smallest ratios.
    let mut readings = String::new();
    for w in declared("workloads") {
        for side in ["parent", "change"] {
            for i in 1..=10 {
                readings += &format!("{w} {side} {i} failed 0\n{w} {side} {i} fnv ab12\n");
                for m in declared("end_to_end") {
                    let v = match m.as_str() {
                        "op_p50_ms" if side == "change" => 40 + (i * 7) % 10 + 1,
                        "op_p50_ms" => 100,
                        _ => 1,
                    };
                    readings += &format!("{w} {side} {i} {m} {v}\n");
                }
            }
        }
    }
    let out = Command::new("bash")
        .current_dir(std::env::temp_dir())
        .arg("-c")
        .arg(r#"source "$1" && summarize 10 0 /dev/null abc1234 def5678+ 2026-01-01T00:00:00Z '{"cpu":"c","nproc":2,"kernel":"k"}' <<<"$2""#)
        .arg("bench_history")
        .arg(root().join("scripts/ab.sh"))
        .arg(&readings)
        .output()
        .expect("bash runs");
    assert!(out.status.success(), "{out:?}");
    let table = String::from_utf8(out.stdout).unwrap();
    let row = table
        .lines()
        .find(|l| l.trim_start().starts_with("op_p50_ms"));
    assert!(
        row.is_some_and(|r| r.contains("0.455 [0.420, 0.490] 97.9 %")),
        "{table}"
    );
}

#[test]
fn ab_sh_puts_the_traced_pairs_ledger_under_per_layer() {
    // Two traced pairs a workload on top of the timed ones: the datagen
    // row reads 800 and 600 on the parent, 500 and 700 on the change (one
    // win, lower being better); `serve.requests_per_s` reads 10 and 12
    // against 11 and 13 (two wins, higher being better); every other row
    // is not measured (0). A traced run's failed ops count with the rest.
    let mut readings = timed_readings();
    for w in declared("workloads") {
        for (side, datagen, rps) in [
            ("parent", [800, 600], [10, 12]),
            ("change", [500, 700], [11, 13]),
        ] {
            for i in 0..2 {
                let run = format!("t{}", i + 1);
                let failed = u8::from(w == "deploy_cold" && side == "change" && i == 1);
                readings += &format!("{w} {side} {run} failed {failed}\n");
                readings += &format!(
                    "{w} {side} {run} clusters.datagen_ms_per_pass {}\n",
                    datagen[i]
                );
                readings += &format!("{w} {side} {run} serve.requests_per_s {}\n", rps[i]);
            }
        }
    }
    let record = std::env::temp_dir().join(format!("ab_traced_{}.jsonl", std::process::id()));
    // A failed op makes summarize exit 1, so score that line by hand.
    let out = Command::new("bash")
        .current_dir(std::env::temp_dir())
        .arg("-c")
        .arg(r#"source "$1" && summarize 3 2 "$2" abc1234 def5678+ 2026-01-01T00:00:00Z '{"cpu":"c","nproc":2,"kernel":"k"}' <<<"$3""#)
        .arg("bench_history")
        .arg(root().join("scripts/ab.sh"))
        .arg(&record)
        .arg(&readings)
        .output()
        .expect("bash runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = std::fs::read_to_string(&record).expect("summarize writes the record");
    std::fs::remove_file(&record).ok();
    check_line(&text, &[]);
    assert!(text.contains(r#""pairs":3,"trace_pairs":2,"workloads""#));
    assert!(text.contains(r#""clusters.datagen_ms_per_pass":{"parent":700,"change":600,"wins":1}"#));
    assert!(text.contains(r#""serve.requests_per_s":{"parent":11,"change":12,"wins":2}"#));
    assert!(text.contains(r#""serve.boot_ms":{"parent":0,"change":0,"wins":0}"#));
    assert!(text.contains(r#"}},"failed":0,"fnv_equal":true},"deploy_cold""#));
    assert!(text.contains(r#"}},"failed":1,"fnv_equal":true},"serve_select""#));
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("clusters.datagen_ms_per_pass") && !table.contains("serve.boot_ms"));
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
