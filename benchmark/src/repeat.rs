//! `--repeat N`: does the benchmark agree with itself?
//!
//! Runs N sweeps of the four workloads twice over, each run in a process of
//! its own (peak RSS, CPU time and the process-wide caches that
//! `deploy_cold` depends on are per process). The two sets take turns sweep
//! by sweep, and which goes first alternates, so what the host does over
//! minutes lands on both. Both use the same seeds: the timings must agree
//! within the bound `BENCHMARK.json` fixes for them, and the quality metrics
//! and artifact digests exactly.

use crate::fixture::Res;
use crate::metrics::END_TO_END;
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// (workload, metric) → the values of one set, in seed order.
type Samples = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// The metrics that are a pure function of the inputs.
const EXACT: [&str; 2] = ["top1_acc", "mean_slowdown"];

/// What two runs of one seed must share, to the bit.
#[derive(Debug, PartialEq)]
struct Exact {
    quality: Vec<f64>,
    /// The `artifact_fnv` note, when the workload prints one.
    digests: Option<String>,
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The end-to-end metrics on the result line of one run, plus whether the
/// run called its outputs correct.
fn parse_result(stdout: &str) -> Res<(bool, Vec<(&'static str, f64)>)> {
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let doc: Value = serde_json::from_str(line)?;
    let correct = field(&doc, "correct").and_then(Value::as_bool) == Some(true);
    let metrics = field(&doc, "metrics").ok_or("result line has no metrics")?;
    let values = END_TO_END
        .iter()
        .map(|m| {
            let value = field(metrics, m.name)
                .and_then(|v| field(v, "value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result line lacks {}", m.name))?;
            Ok((m.name, value))
        })
        .collect::<Res<Vec<_>>>()?;
    Ok((correct, values))
}

/// One run in a child process: its metrics and what must repeat exactly.
fn one_run(
    workload: &'static str,
    seed: u64,
    seconds: f64,
) -> Res<(Vec<(&'static str, f64)>, Exact)> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (correct, values) = parse_result(&stdout)?;
    if !output.status.success() || !correct {
        return Err(format!("{workload} seed {seed} failed:\n{stdout}").into());
    }
    let note = |key: &str| stdout.lines().find(|l| l.contains(key)).map(str::to_string);
    println!(
        "{workload} seed {seed}: {}",
        note("bench.cpu_probe_ms").unwrap_or_default()
    );
    let exact = Exact {
        quality: values
            .iter()
            .filter(|(name, _)| EXACT.contains(name))
            .map(|&(_, v)| v)
            .collect(),
        digests: note("artifact_fnv="),
    };
    Ok((values, exact))
}

/// How far the second set's median lies from the first's, as a share of
/// the first.
fn drift(first: f64, second: f64) -> f64 {
    if first == 0.0 {
        f64::from(second != 0.0)
    } else {
        ((second - first) / first).abs()
    }
}

/// Returns whether every metric of every workload repeated: the timings
/// within their bounds, the quality metrics and digests exactly.
pub fn run(sweeps: usize, seconds: f64, out_dir: &Path) -> Res<bool> {
    let mut sets = [Samples::new(), Samples::new()];
    let mut all_within = true;
    for sweep in 0..sweeps {
        let seed = sweep as u64 + 1;
        let mut exact: [Vec<Exact>; 2] = [Vec::new(), Vec::new()];
        for turn in 0..2 {
            let set = (sweep + turn) % 2;
            println!("sweep {sweep}, set {}", set + 1);
            for workload in WORKLOADS {
                let (values, same) = one_run(workload, seed, seconds)?;
                for (metric, value) in values {
                    sets[set].entry((workload, metric)).or_default().push(value);
                }
                exact[set].push(same);
            }
        }
        for (workload, (a, b)) in WORKLOADS.iter().zip(exact[0].iter().zip(&exact[1])) {
            if a != b {
                all_within = false;
                println!("{workload} seed {seed} did not repeat exactly: {a:?} vs {b:?}");
            }
        }
    }
    let mut rows = Vec::new();
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median 1", "median 2", "drift", "bound"
    );
    for workload in WORKLOADS {
        for m in END_TO_END {
            let bound = m.bound.unwrap_or(0.0);
            let q: Vec<[f64; 3]> = sets
                .iter()
                .map(|s| quartiles(&s[&(workload, m.name)]))
                .collect();
            let d = drift(q[0][1], q[1][1]);
            let within = d <= bound;
            all_within &= within;
            println!(
                "{workload:<14} {:<14} {:>14.5} {:>14.5} {:>7.2}% {:>6.1}%{}",
                m.name,
                q[0][1],
                q[1][1],
                d * 100.0,
                bound * 100.0,
                if within {
                    ""
                } else {
                    "  <-- exceeds its bound"
                }
            );
            let quartile_list =
                |q: [f64; 3]| Value::Array(q.iter().map(|&v| Value::Float(v)).collect());
            rows.push(Value::Object(vec![
                ("workload".to_string(), Value::Str(workload.to_string())),
                ("metric".to_string(), Value::Str(m.name.to_string())),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
                ("bound".to_string(), Value::Float(bound)),
                ("quartiles_1".to_string(), quartile_list(q[0])),
                ("quartiles_2".to_string(), quartile_list(q[1])),
                ("median_drift".to_string(), Value::Float(d)),
                ("within_bound".to_string(), Value::Bool(within)),
            ]));
        }
    }
    let doc = Value::Object(vec![
        (
            "schema".to_string(),
            Value::Str("pml-benchmark-repeatability/v1".to_string()),
        ),
        ("sweeps_per_set".to_string(), Value::UInt(sweeps as u64)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("all_within_bounds".to_string(), Value::Bool(all_within)),
        ("rows".to_string(), Value::Array(rows)),
    ]);
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join("repeatability.json");
    std::fs::write(&path, serde_json::to_string_pretty(&doc)?)?;
    println!("wrote {}", path.display());
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_incomplete_ones_are_refused() {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(
                    "\"{}\":{{\"value\":{}.5,\"unit\":\"{}\"}}",
                    m.name, i, m.unit
                )
            })
            .collect();
        let line = format!(
            "note: x\n{{\"correct\":true,\"attempted\":8,\"failed\":0,\"metrics\":{{{}}}}}",
            metrics.join(",")
        );
        let (correct, values) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(values.len(), END_TO_END.len());
        assert_eq!(values[2], ("op_p50_ms", 2.5));
        assert!(parse_result("").is_err());
        assert!(parse_result("{\"correct\":true,\"metrics\":{}}").is_err());
    }

    #[test]
    fn exact_metrics_are_end_to_end_metrics() {
        for name in EXACT {
            assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn drift_is_relative_to_the_first_set() {
        assert_eq!(drift(10.0, 11.0), 0.1);
        assert_eq!(drift(10.0, 9.0), 0.1);
        assert_eq!(drift(0.0, 0.0), 0.0);
        assert_eq!(drift(0.0, 1.0), 1.0);
    }
}
