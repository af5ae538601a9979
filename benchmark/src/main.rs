//! The repo's benchmark: one workload per invocation, in one process.
//!
//! ```text
//! pml-benchmark --workload <name> --seed <n> --seconds <s> [--trace 0|1]
//! pml-benchmark [--seconds <s>] --repeat [<n>]
//! ```
//!
//! With `--trace 0` the run prints the seven end-to-end metrics; with
//! `--trace 1` the workload runs under the span recorder and the per-layer
//! ledger is printed instead. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. README.md defines
//! every name used here.

mod deploy;
mod fixture;
mod metrics;
mod pretrain;
mod probes;
mod repeat;
mod serve;
mod stats;
mod sys;
mod trace;
mod workload;

use deploy::DeployCold;
use fixture::{offline_pass, trimmed_zoo, Res};
use metrics::{Metric, END_TO_END, PER_LAYER};
use pml_mpi::serve::ObsConfig;
use pretrain::Pretrain;
use serde::Value;
use serve::{Artifacts, Serve, ServePath, Traffic};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Mode, Phase, Recorder};
use workload::{Outcome, Workload, WORKLOADS};

/// Equal slices of the timed section that `ops_per_s` is the median of.
const THROUGHPUT_WINDOWS: usize = 40;

#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: pml-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         pml-benchmark [--seconds S] --repeat [N]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.2..=60.0).contains(s))
                    .ok_or("--seconds must lie in 0.2..=60")?
            }
            // `--repeat` as the last word means five sweeps a set.
            "--repeat" => {
                args.repeat = Some(match it.next() {
                    None => 5,
                    Some(n) => n
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or("--repeat must be a positive integer")?,
                })
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.repeat.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    Ok(args)
}

/// Where trace files, repeatability reports and scratch artifacts go:
/// `out/` beside this crate's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A path inside the checkout, written relative to the working directory
/// where possible: Unix socket paths are limited to 108 bytes.
fn short(path: PathBuf) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    path.strip_prefix(&cwd)
        .map(Path::to_path_buf)
        .unwrap_or(path)
}

fn set_up(args: &Args, rec: &Recorder, scratch: &Path) -> Res<Box<dyn Workload>> {
    let zoo = trimmed_zoo();
    Ok(match args.workload.as_str() {
        "pretrain" => Box::new(Pretrain::setup(rec, zoo)?),
        "deploy_cold" => {
            let pass = offline_pass(rec, &zoo)?;
            Box::new(DeployCold::setup(
                rec,
                pass.json,
                args.seed,
                args.seconds,
                scratch.join("deploy"),
            )?)
        }
        name => {
            let path = if name == "serve_select" {
                ServePath::Select
            } else {
                ServePath::Predict
            };
            let pass = offline_pass(rec, &zoo)?;
            let art = Arc::new(Artifacts::build(rec, &zoo, pass.models)?);
            let traffic = Traffic::build(rec, &art, path, true)?;
            let socket = short(scratch.join("daemon.sock"));
            Box::new(Serve::setup(
                art,
                traffic,
                socket,
                ObsConfig::default(),
                args.seed,
            )?)
        }
    })
}

/// Everything one invocation reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

fn end_to_end(w: &dyn Workload, out: &Outcome, setup_s: f64) -> BTreeMap<&'static str, f64> {
    let ops_per_s = if w.time_boxed() {
        stats::window_median_throughput(&out.done_at_s, out.wall_s, THROUGHPUT_WINDOWS)
    } else {
        out.op_ms.len() as f64 / out.wall_s
    };
    BTreeMap::from([
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("op_p50_ms", stats::median(&out.op_ms)),
        ("cpu_ms_per_op", stats::median(&out.cpu_ms_per_op)),
        ("peak_rss_mib", stats::median(&out.rss_mib)),
        ("top1_acc", out.score.top1_acc()),
        ("mean_slowdown", out.score.mean_slowdown()),
    ])
}

/// The note line about op latencies: the highest percentile the sample
/// supports, the sample count, and how equal the ops were.
fn latency_note(out: &Outcome) -> String {
    let sorted = stats::sorted(&out.op_ms);
    let tail = match stats::highest_supported_percentile(sorted.len()) {
        Some((label, q)) => format!("op_{label}_ms={:.4}", stats::quantile(&sorted, q)),
        None => format!("op_max_ms={:.4}", sorted.last().copied().unwrap_or(0.0)),
    };
    format!(
        "{tail} ops={} op_iqr_ratio={:.3} cpu_slice_iqr_ratio={:.3} scored_cells={}",
        sorted.len(),
        stats::iqr_ratio(&sorted),
        stats::iqr_ratio(&stats::sorted(&out.cpu_ms_per_op)),
        out.score.cells
    )
}

fn run_once(args: &Args, started: Instant) -> Res<Report> {
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let result = run_in(args, started, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    result
}

fn run_in(args: &Args, started: Instant, scratch: &Path) -> Res<Report> {
    let rec = Recorder::new(if args.trace { Mode::On } else { Mode::Off });
    let mut notes = Vec::new();
    // Before any other thread exists, so that the daemon's inherit it.
    if args.workload.starts_with("serve_") {
        notes.push(match sys::pin_to_one_cpu() {
            Some(cpu) => format!("client and daemon pinned to cpu {cpu}"),
            None => "not pinned: the kernel refused sched_setaffinity".to_string(),
        });
    }
    let mut workload = set_up(args, &rec, scratch)?;
    let setup_s = started.elapsed().as_secs_f64();
    let setup_rss = sys::peak_rss_mib();
    if !sys::reset_peak_rss() {
        notes.push("peak_rss_mib includes set-up: /proc/self/clear_refs is not writable".into());
    }

    let probe_before = sys::cpu_probe_ms();
    if args.trace {
        rec.set_mode(Mode::Alternate);
        rec.set_phase(Phase::Timed);
    }
    let out = workload.run(&rec, args.seconds)?;
    let probe_after = sys::cpu_probe_ms();
    notes.push(format!(
        "bench.cpu_probe_ms before={probe_before:.3} after={probe_after:.3}"
    ));
    let mut metrics = end_to_end(workload.as_ref(), &out, setup_s);

    if args.trace {
        // A row no op and no probe of this workload fills stays at zero:
        // the layer is not on its path.
        let mut ledger: probes::Ledger = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        rec.set_mode(Mode::On);
        rec.set_phase(Phase::Probe);
        notes.extend(workload.ledger(&rec, &out, &mut ledger)?);
        // Traced and untraced ops alternated: their medians differ by what
        // the recorder costs.
        let p50_of = |traced: bool| {
            let ms: Vec<f64> = out
                .op_ms
                .iter()
                .zip(&out.op_traced)
                .filter(|&(_, &t)| t == traced)
                .map(|(&ms, _)| ms)
                .collect();
            stats::median(&ms)
        };
        let (plain, traced) = (p50_of(false), p50_of(true));
        if plain <= 0.0 || traced <= 0.0 {
            return Err("the traced run needs a traced and an untraced op".into());
        }
        ledger.insert("bench.trace_overhead_share", 1.0 - plain / traced);
        ledger.insert("bench.setup_peak_rss_mib", setup_rss);
        ledger.insert("bench.cpu_probe_ms", (probe_before + probe_after) / 2.0);
        let spans = rec.spans();
        ledger.insert(
            "bench.ledger_closure_share",
            trace::ledger_closure_share(&spans, workload.op_span()),
        );
        probes::from_spans(&spans, &mut ledger);
        let path = out_dir().join(format!("trace_{}.json", args.workload));
        std::fs::write(
            &path,
            serde_json::to_string(&trace::to_json(&args.workload, args.seed, &spans))?,
        )?;
        notes.push(format!(
            "trace: {} spans in {}",
            spans.len(),
            short(path).display()
        ));
        notes.push(format!(
            "every other op traced: op_p50_ms untraced={plain:.4} traced={traced:.4}; \
             all ops: ops_per_s={:.4} op_p50_ms={:.4}",
            metrics["ops_per_s"], metrics["op_p50_ms"],
        ));
        metrics = ledger;
    }

    notes.push(latency_note(&out));
    if !out.digests.is_empty() {
        notes.push(format!("artifact_fnv={:016x?}", out.digests));
    }
    notes.extend(out.failures.iter().map(|f| format!("FAILED: {f}")));
    drop(workload);
    Ok(Report {
        correct: out.failed == 0,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
        notes,
    })
}

fn print_report(args: &Args, report: &Report, nproc: usize) {
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
    );
    let mut fields = Vec::new();
    for m in table {
        let value = report.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("{:<44} {:>16.6} {}", m.name, value, m.unit);
        fields.push((
            m.name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ]),
        ));
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(report.correct)),
        ("attempted".to_string(), Value::UInt(report.attempted)),
        ("failed".to_string(), Value::UInt(report.failed)),
        ("metrics".to_string(), Value::Object(fields)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("a Value tree always serialises")
    );
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat::run(n, args.seconds, &out_dir()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    // Read before a daemon workload pins itself to one of them.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    match run_once(&args, started) {
        Ok(report) => {
            print_report(&args, &report, nproc);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serve_select --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_select", 7, 10.0, false)
        );
        let a = parse_args(&argv("--workload pretrain --seed 7 --seconds 10 --trace 1")).unwrap();
        assert!(a.trace);
        let a = parse_args(&argv("--repeat 3")).unwrap();
        assert_eq!(a.repeat, Some(3));
        let a = parse_args(&argv("--seconds 4 --repeat")).unwrap();
        assert_eq!((a.repeat, a.seconds), (Some(5), 4.0));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload pretrain --seed x",
            "--workload pretrain --seconds 0",
            "--workload pretrain --seconds 600",
            "--workload pretrain --frobnicate",
            "--workload pretrain --trace",
            "--workload pretrain --trace yes",
            "--repeat 0",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
