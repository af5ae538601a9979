//! `pml-mpi` — command-line front end for the selection framework: the
//! offline → online lifecycle, one subcommand per step. [`SUBCOMMANDS`]
//! declares each one and [`GLOBAL`] the flags every subcommand takes;
//! `help`, the usage errors and the flags accepted all come from there.
//! The global flags are observability-only: the tracer is enabled here at
//! the CLI edge with a monotonic clock, and artifacts stay byte-identical
//! with or without them (the `obs-determinism` CI lane holds that line).
//!
//! Argument parsing is hand rolled (the build is offline — no clap); every
//! user error surfaces as a message on stderr and exit code 1, never a
//! panic.

use pml_mpi::clusters::measure_cell;
use pml_mpi::obs;
use pml_mpi::obs::span;
use pml_mpi::serve::{encode_request, watch, Client, Op, Request};
use pml_mpi::{
    by_name, detect_node, AlgorithmSelector, Collective, DatagenConfig, EngineConfig, JobConfig,
    MvapichDefault, NodeSpec, OpenMpiDefault, PretrainedModel, SelectionEngine, Tuner,
    FEATURE_NAMES,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // `stats` is the observability showcase: it always traces, flags or not.
    let stats_run = opts.cmd.name() == "stats";
    if opts.has("trace") || opts.has("metrics-out") || stats_run {
        obs::tracer().enable(std::sync::Arc::new(obs::MonotonicClock::new()));
    }
    let result = {
        let _span = span!(opts.cmd.span);
        (opts.cmd.run)(&opts)
    };
    let written = finish_obs(&opts, stats_run);
    if let Err(e) = &result {
        eprintln!("error: {e}");
    }
    if result.is_err() || !written {
        std::process::exit(1);
    }
}

/// One subcommand: its root span `cmd.<name>` (the name is what follows
/// `cmd.`), what follows the name in `help` and in its usage error, a
/// one-line summary, its flags, and the function that runs it.
struct Subcommand {
    span: &'static str,
    synopsis: &'static str,
    summary: &'static str,
    flags: &'static [Flag],
    run: fn(&Opts) -> Result<(), Box<dyn Error>>,
}

/// One `--flag`: its name, what its value stands for in `help` (empty for
/// a switch, which takes no value), and its help text (a `\n` continues
/// it on the next line; `{bar}` is the top-1 agreement bar).
struct Flag {
    name: &'static str,
    value: &'static str,
    help: &'static str,
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value, help }
}

impl Subcommand {
    fn name(&self) -> &'static str {
        self.span.trim_start_matches("cmd.")
    }

    fn usage(&self) -> String {
        let line = format!("pml-mpi {} {}", self.name(), self.synopsis);
        line.trim_end().to_string()
    }
}

#[rustfmt::skip]
mod flags {
    use super::{flag, Flag};
    pub const TRACE: Flag = flag("trace", "", "print the span tree (stage timings) to stderr on exit");
    pub const METRICS_OUT: Flag = flag("metrics-out", "FILE", "write the pml-obs/v3 metrics JSON document to FILE");
    pub const CACHE_DIR: Flag = flag("cache-dir", "DIR", "dataset cache directory (default: ./data when present)");
    pub const NO_CACHE: Flag = flag("no-cache", "", "regenerate datasets in memory, ignore any cache");
    pub const NODES: Flag = flag("nodes", "N", "nodes in the job (required)");
    pub const PPN: Flag = flag("ppn", "P", "processes per node (required)");
    pub const SOCKET: Flag = flag("socket", "PATH", "the daemon's Unix domain socket (required)");
}
use flags::*;

/// Accepted by every subcommand, before or after its name.
const GLOBAL: &[Flag] = &[TRACE, METRICS_OUT];

#[rustfmt::skip]
const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand { span: "cmd.zoo", synopsis: "", summary: "list the 18-cluster benchmark zoo", run: cmd_zoo, flags: &[] },
    Subcommand { span: "cmd.dataset", synopsis: "<collective> [--out FILE]", run: cmd_dataset,
        summary: "generate or load the micro-benchmark dataset", flags: &[
        CACHE_DIR, NO_CACHE, flag("out", "FILE", "write the records as JSON to FILE (default: per-cluster counts)"),
    ] },
    Subcommand { span: "cmd.train", synopsis: "<collective> [--out FILE]", run: cmd_train,
        summary: "train the Random Forest for one collective", flags: &[
        CACHE_DIR, NO_CACHE, flag("out", "FILE", "write the model JSON to FILE"),
    ] },
    Subcommand { span: "cmd.predict", synopsis: "<collective> --nodes N --ppn P --msg BYTES (--cluster NAME | --lscpu F --ibstat F)", run: cmd_predict,
        summary: "pick an algorithm for one job", flags: &[
        CACHE_DIR, NO_CACHE, NODES, PPN,
        flag("msg", "BYTES", "message size in bytes (required)"),
        flag("cluster", "NAME", "use a zoo cluster's hardware"),
        flag("lscpu", "FILE", "captured `lscpu` output (with --ibstat; instead of --cluster)"),
        flag("ibstat", "FILE", "captured `ibstat` output"),
        flag("lspci", "FILE", "captured `lspci -vv` link status (optional; Gen3 x16 assumed)"),
        flag("mem-bw", "GBS", "measured STREAM bandwidth (optional with --lscpu)"),
        flag("model", "FILE", "load a trained model JSON instead of training"),
    ] },
    Subcommand { span: "cmd.table", synopsis: "<cluster> <collective> [--out FILE]", run: cmd_table,
        summary: "emit a cluster's JSON tuning table", flags: &[
        CACHE_DIR, NO_CACHE, flag("out", "FILE", "write the table to FILE (default: stdout)"),
    ] },
    Subcommand { span: "cmd.compare", synopsis: "<cluster> <collective> --nodes N --ppn P [--msg BYTES]", run: cmd_compare,
        summary: "ML vs library defaults vs oracle", flags: &[
        CACHE_DIR, NO_CACHE, NODES, PPN,
        flag("msg", "BYTES", "one message size; without it a 1 B … 1 MiB power-of-two sweep runs"),
    ] },
    Subcommand { span: "cmd.verify", synopsis: "<FILE>... | verify --schedules [FILE]... | verify --costs", run: cmd_verify,
        summary: "statically verify artifacts (models, tables, binned matrices), schedules or costs", flags: &[
        flag("schedules", "", "verify pml-sched/v1 schedule files instead; with none, prove every\nregistered algorithm over the (world, size) grid — zero execution"),
        flag("costs", "", "derive every grid cell's symbolic α-β-γ cost polynomial statically,\nthen hold the analytic ranking against simnet virtual time\n(≥{bar}% top-1 agreement per collective)"),
        flag("max-world", "N", "largest world size in the sweep (default 16)"),
        flag("blocks", "CSV", "comma-separated block/message sizes in bytes (default 16,21)"),
        flag("cluster", "NAME", "zoo cluster whose hardware prices the polynomials\n(--costs only; default: RI)"),
    ] },
    Subcommand { span: "cmd.stats", synopsis: "[<collective>] [--cluster NAME]", run: cmd_stats,
        summary: "run a small pipeline, dump spans/metrics/events", flags: &[
        CACHE_DIR, NO_CACHE, flag("cluster", "NAME", "zoo cluster to pipeline (default: RI)"),
    ] },
    Subcommand { span: "cmd.serve", synopsis: "--socket PATH --model DIR", run: cmd_serve,
        summary: "selection daemon over a Unix domain socket", flags: &[
        flag("socket", "PATH", "Unix domain socket to listen on (required)"),
        flag("model", "DIR", "artifact dir: tuning tables as DIR/*.json, pre-trained\nmodels as DIR/models/*.json (required)"),
        flag("no-request-trace", "", "disable per-request stage attribution"),
        flag("slow-threshold-us", "US", "slow-ring capture threshold (default 1000)"),
        flag("slo", "FILE", "SLO targets, {\"target_p50_ns\":…,\"target_p99_ns\":…}\n(the repo pins them in slo.json; default: none)"),
        flag("quality-sample", "K", "re-score 1-in-K served decisions through the\nanalytic referee (default 32; 0 disables)"),
        flag("quality-cluster", "NAME", "score against this zoo cluster's hardware\ninstead of each request's own cluster label"),
    ] },
    Subcommand { span: "cmd.loadgen", synopsis: "--socket PATH", run: cmd_loadgen,
        summary: "replay synthetic requests, record latency", flags: &[
        SOCKET,
        flag("requests", "N", "total requests across all threads (default 100000)"),
        flag("threads", "T", "concurrent client connections (default 4)"),
        flag("warmup", "N", "untimed warmup requests per connection (default 32)"),
        flag("collective", "C", "collective to query (default alltoall)"),
        flag("op", "OP", "select | predict (default select)"),
        flag("seed", "N", "job-shape sampling seed (default 42)"),
        flag("out", "FILE", "write the JSON report (default: stdout); throughput_rps is\ntimed requests / wall_s, first timed send to last timed\nreply over all connections (no connect, no warmup)"),
    ] },
    Subcommand { span: "cmd.client", synopsis: "--socket PATH", summary: "stdin NDJSON frames -> socket -> stdout", run: cmd_client, flags: &[SOCKET] },
    Subcommand { span: "cmd.watch", synopsis: "--socket PATH", run: cmd_watch,
        summary: "stream live daemon observability snapshots", flags: &[
        SOCKET,
        flag("interval-ms", "MS", "snapshot spacing (default 1000)"),
        flag("count", "N", "stop after N snapshots (default 0 = stream forever)"),
        flag("raw", "", "print the NDJSON frames instead of the rendered view"),
    ] },
    HELP,
];

/// What runs when the line names no subcommand.
const HELP: Subcommand = Subcommand {
    span: "cmd.help",
    synopsis: "",
    summary: "show this message",
    run: cmd_help,
    flags: &[],
};

const EXAMPLES: &str = r#"  pml-mpi train allgather --out model_ag.json
  pml-mpi predict allgather --cluster Frontera --nodes 16 --ppn 56 --msg 4096
  pml-mpi predict alltoall --lscpu examples/captures/lscpu_frontera.txt \
      --ibstat examples/captures/ibstat_edr.txt --nodes 8 --ppn 56 --msg 65536
  pml-mpi table Frontera allgather --out frontera_allgather.json
  pml-mpi table RI alltoall --trace --metrics-out metrics.json
  pml-mpi compare Frontera alltoall --nodes 16 --ppn 56
  pml-mpi verify model_ag.json frontera_allgather.json
  pml-mpi verify --schedules --max-world 16 --blocks 16,21
  pml-mpi verify --costs --cluster RI
  pml-mpi stats alltoall --cluster RI
  pml-mpi serve --socket /tmp/pml.sock --model artifacts/
  printf '{"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall",\
"nodes":4,"ppn":8,"msg_size":1024}\n' | pml-mpi client --socket /tmp/pml.sock
  pml-mpi loadgen --socket /tmp/pml.sock --requests 100000 --threads 8 --out report.json
  pml-mpi watch --socket /tmp/pml.sock --interval-ms 1000"#;

fn cmd_help(_: &Opts) -> Result<(), Box<dyn Error>> {
    println!("{}", help_text());
    Ok(())
}

fn help_text() -> String {
    let mut out = "pml-mpi — pre-trained ML selection of MPI collective algorithms\n\n\
                   USAGE: pml-mpi <SUBCOMMAND> [OPTIONS]\n\nGLOBAL OPTIONS (any subcommand):\n"
        .to_string();
    write_flags(&mut out, GLOBAL);
    out += "\nSUBCOMMANDS:\n";
    for cmd in SUBCOMMANDS {
        out += &format!("  {}\n      {}\n", cmd.usage(), cmd.summary);
        write_flags(&mut out, cmd.flags);
    }
    out + "\nEXAMPLES:\n" + EXAMPLES
}

/// `flags` as `help` lists them: a `--name VALUE` column, then the text.
fn write_flags(out: &mut String, flags: &[Flag]) {
    for f in flags {
        let name = format!("--{} {}", f.name, f.value);
        let bar = pml_mpi::collectives::schedcost::TOP1_BAR_PERCENT.to_string();
        let help = f
            .help
            .replace("{bar}", &bar)
            .replace('\n', &format!("\n{:30}", ""));
        *out += &format!("      {name:<24}{help}\n");
    }
}

/// The command line, read once: the subcommand (the first word that is
/// not a flag or a flag's value), its positional arguments, and every
/// flag given, each one the subcommand or [`GLOBAL`] declares. Unknown
/// flags are an error so typos do not silently change behaviour.
struct Opts {
    cmd: &'static Subcommand,
    positional: Vec<String>,
    flags: BTreeMap<&'static str, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut cmd, mut positional, mut flags) = (None, Vec::new(), BTreeMap::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let flag = a.strip_prefix("--");
            if cmd.is_none() && (flag.is_none() || a == "--help") {
                let help = a == "-h" || a == "--help";
                let named = SUBCOMMANDS
                    .iter()
                    .find(|c| c.name() == a || (help && c.name() == "help"));
                let unknown = || format!("unknown subcommand {a:?} — run `pml-mpi help`");
                cmd = Some(named.ok_or_else(unknown)?);
                continue;
            }
            let Some(name) = flag else {
                positional.push(a.clone());
                continue;
            };
            let (name, inline) = match name.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (name, None),
            };
            let declared = cmd.map_or(&[][..], |c: &Subcommand| c.flags);
            let Some(flag) = GLOBAL.iter().chain(declared).find(|f| f.name == name) else {
                return Err(format!("unknown option --{name}"));
            };
            let value = match (flag.value.is_empty(), inline) {
                (true, Some(_)) => return Err(format!("--{name} takes no value")),
                (true, None) => String::new(),
                (false, Some(v)) => v,
                (false, None) => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("--{name} needs a value"))?,
            };
            flags.insert(flag.name, value);
        }
        let cmd = cmd.unwrap_or(&HELP);
        Ok(Opts {
            cmd,
            positional,
            flags,
        })
    }

    /// Exactly `N` positional arguments, or the subcommand's usage error.
    fn args<const N: usize>(&self) -> Result<[&str; N], String> {
        let args: Vec<&str> = self.positional.iter().map(String::as_str).collect();
        args.try_into().map_err(|_| self.usage())
    }

    fn usage(&self) -> String {
        format!("usage: {}", self.cmd.usage())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// `--name`'s value as a `T`, or `default` when the flag is absent;
    /// absent without a default, or not a `T`, is an error.
    fn value<T: FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(name), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("missing required --{name}")),
        }
    }

    /// `--socket PATH`, which every client subcommand requires.
    fn socket(&self) -> Result<&str, &'static str> {
        self.get("socket").ok_or("missing required --socket PATH")
    }
}

/// After the subcommand returns (even on error): render the span tree to
/// stderr (`--trace`, or always for `stats`) and write the metrics JSON
/// (`--metrics-out`). False if that write failed, which fails the run.
fn finish_obs(opts: &Opts, stats_run: bool) -> bool {
    let tracer = obs::tracer();
    if !tracer.is_enabled() {
        return true;
    }
    let forest = tracer.finish();
    if (opts.has("trace") || stats_run) && !forest.is_empty() {
        eprint!("{}", forest.render());
    }
    if let Some(path) = opts.get("metrics-out") {
        let json = obs::metrics_json(&obs::metrics::snapshot(), Some(&forest));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {path}: {e}");
            return false;
        }
        eprintln!("metrics written to {path}");
    }
    true
}

/// `--nodes`, `--ppn` and `--msg` (`msg` when that flag is absent), held
/// to the job check the daemon's `field` errors come from.
fn job_flags(opts: &Opts, msg: Option<u64>) -> Result<JobConfig, String> {
    JobConfig::read(
        |key| match key {
            "msg_size" => opts.value("msg", msg),
            _ => opts.value(key, None),
        },
        |e| e,
    )
}

fn parse_collective(s: &str) -> Result<Collective, String> {
    pml_mpi::serve::parse_collective(s).ok_or_else(|| {
        format!("unknown collective {s:?} (expected allgather, alltoall, bcast, or allreduce)")
    })
}

/// The engine every subcommand shares: default config, dataset cache in
/// `--cache-dir`, falling back to the repo's committed `./data` when it
/// exists (so `train`/`predict` do not re-benchmark the whole zoo).
fn build_engine(opts: &Opts) -> SelectionEngine {
    let cache_dir = match opts.get("cache-dir") {
        _ if opts.has("no-cache") => None,
        Some(d) => Some(PathBuf::from(d)),
        None => Path::new("data").is_dir().then(|| PathBuf::from("data")),
    };
    SelectionEngine::new(EngineConfig {
        cache_dir,
        ..EngineConfig::default()
    })
}

fn report_warnings(engine: &SelectionEngine) {
    for w in engine.warnings() {
        eprintln!("warning: {w}");
    }
}

fn write_or_print(out: Option<&str>, json: &str, what: &str) -> Result<(), Box<dyn Error>> {
    match out {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{what} written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_zoo(_: &Opts) -> Result<(), Box<dyn Error>> {
    println!(
        "{:<14} {:<40} {:>5} {:>6}  {:<10} {:>12}",
        "cluster", "processor", "cores", "clock", "fabric", "grid cells"
    );
    for e in pml_mpi::zoo() {
        let cpu = &e.spec.node.cpu;
        let nic = &e.spec.node.nic;
        println!(
            "{:<14} {:<40} {:>5} {:>5.2}G  {:<10} {:>12}",
            e.name(),
            cpu.model,
            cpu.cores,
            cpu.max_clock_ghz,
            format!("{:?} x{}", nic.generation, nic.link_width),
            e.grid_size(),
        );
    }
    Ok(())
}

fn cmd_dataset(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let [coll] = opts.args()?;
    let coll = parse_collective(coll)?;
    let engine = build_engine(opts);
    let records = engine.dataset(coll)?;
    report_warnings(&engine);
    let mut per_cluster: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        *per_cluster.entry(r.cluster.as_str()).or_default() += 1;
    }
    eprintln!(
        "{coll}: {} records / {} clusters",
        records.len(),
        per_cluster.len()
    );
    if let Some(path) = opts.get("out") {
        let json =
            serde_json::to_string(&records).map_err(|e| format!("serializing dataset: {e}"))?;
        write_or_print(Some(path), &json, "dataset")?;
    } else {
        for (name, n) in &per_cluster {
            println!("{name:<14} {n}");
        }
    }
    Ok(())
}

fn cmd_train(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let [coll] = opts.args()?;
    let coll = parse_collective(coll)?;
    let mut engine = build_engine(opts);
    let model = engine.train(coll)?;
    report_warnings(&engine);
    let features: Vec<&str> = model
        .selected_features()
        .iter()
        .map(|&i| FEATURE_NAMES[i])
        .collect();
    eprintln!(
        "{coll}: trained; selected features: {}",
        features.join(", ")
    );
    if let Some(oob) = model.oob_score() {
        eprintln!("out-of-bag accuracy: {:.1}%", oob * 100.0);
    }
    if let Some(path) = opts.get("out") {
        write_or_print(Some(path), &model.to_json()?, "model")?;
    }
    Ok(())
}

/// Hardware for `predict`: a zoo cluster by name, or a node assembled from
/// captured `lscpu`/`ibstat` (and optionally `lspci -vv`) output.
fn resolve_node(opts: &Opts) -> Result<NodeSpec, Box<dyn Error>> {
    if let Some(name) = opts.get("cluster") {
        let entry =
            by_name(name).ok_or_else(|| format!("unknown cluster {name:?} — see `pml-mpi zoo`"))?;
        return Ok(entry.spec.node.clone());
    }
    let (Some(lscpu_path), Some(ibstat_path)) = (opts.get("lscpu"), opts.get("ibstat")) else {
        return Err(
            "predict needs either --cluster NAME or both --lscpu and --ibstat files".into(),
        );
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let mem_bw = opts
        .has("mem-bw")
        .then(|| opts.value::<f64>("mem-bw", None))
        .transpose()?;
    let (lscpu, ibstat) = (read(lscpu_path)?, read(ibstat_path)?);
    let lspci = opts.get("lspci").map(read).transpose()?;
    Ok(detect_node(&lscpu, &ibstat, lspci.as_deref(), mem_bw)?)
}

fn cmd_predict(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let [coll] = opts.args()?;
    let coll = parse_collective(coll)?;
    let job = job_flags(opts, None)?;
    let node = resolve_node(opts)?;
    let model = match opts.get("model") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let model = PretrainedModel::from_json(&text)
                .map_err(|e| format!("parsing model {path}: {e}"))?;
            if model.collective != coll {
                return Err(
                    format!("model in {path} is for {}, not {coll}", model.collective).into(),
                );
            }
            std::sync::Arc::new(model)
        }
        None => {
            let mut engine = build_engine(opts);
            let model = engine.train(coll)?;
            report_warnings(&engine);
            model
        }
    };
    let pick = model.predict(&node, job);
    println!(
        "{coll} at {}x{} ({} ranks), {} B -> {}",
        job.nodes,
        job.ppn,
        job.world_size(),
        job.msg_size,
        pick
    );
    Ok(())
}

fn cmd_table(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let [cluster, coll] = opts.args()?;
    let coll = parse_collective(coll)?;
    let mut engine = build_engine(opts);
    let table = engine.tuning_table(cluster, coll)?;
    report_warnings(&engine);
    eprintln!("{cluster} {coll}: {} table entries", table.len());
    write_or_print(opts.get("out"), &table.to_json()?, "tuning table")
}

fn cmd_compare(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let [cluster, coll] = opts.args()?;
    let coll = parse_collective(coll)?;
    // Without --msg the sweep runs; its first size stands in for the check.
    let job = job_flags(opts, Some(1))?;
    let sizes: Vec<usize> = match opts.get("msg") {
        Some(_) => vec![job.msg_size],
        None => (0..21).map(|i| 1usize << i).collect(),
    };
    let mut engine = build_engine(opts);
    let entry = engine.entry(cluster)?.clone();
    let model = engine.train(coll)?;
    report_warnings(&engine);
    let mva = MvapichDefault;
    let ompi = OpenMpiDefault;
    println!(
        "{:<9} {:<22} {:>9} {:<22} {:>9} {:<22} {:>9} {:<22}",
        "msg(B)", "ml pick", "us", "mvapich", "us", "openmpi", "us", "oracle"
    );
    let fmt_us = |t: Option<f64>| match t {
        Some(s) => format!("{:.1}", s * 1e6),
        None => "-".to_string(),
    };
    for &msg in &sizes {
        let job = JobConfig {
            msg_size: msg,
            ..job
        };
        // Measured as the engine's datasets are, so the oracle column
        // matches the training distribution.
        let record = measure_cell(
            &entry,
            coll,
            job.nodes,
            job.ppn,
            msg,
            &DatagenConfig::default(),
        )?;
        let ml = model.predict(&entry.spec.node, job);
        let m = mva.select(coll, job);
        let o = ompi.select(coll, job);
        println!(
            "{:<9} {:<22} {:>9} {:<22} {:>9} {:<22} {:>9} {:<22}",
            msg,
            ml.name(),
            fmt_us(record.runtime_of(ml)),
            m.name(),
            fmt_us(record.runtime_of(m)),
            o.name(),
            fmt_us(record.runtime_of(o)),
            format!(
                "{} ({})",
                record.best.name(),
                fmt_us(Some(record.best_runtime()))
            ),
        );
    }
    Ok(())
}

/// Prints one line per file; any failure is reported with its path and the
/// command exits nonzero after checking every file.
fn cmd_verify(opts: &Opts) -> Result<(), Box<dyn Error>> {
    if opts.has("schedules") && opts.has("costs") {
        return Err("--schedules and --costs are separate passes; pick one".into());
    }
    if opts.has("costs") {
        return cmd_verify_costs(opts);
    }
    if opts.has("schedules") {
        if opts.has("cluster") {
            return Err("--cluster only applies with --costs".into());
        }
        return cmd_verify_schedules(opts);
    }
    if opts.has("max-world") || opts.has("blocks") || opts.has("cluster") {
        return Err("--max-world/--blocks/--cluster only apply with --schedules or --costs".into());
    }
    if opts.positional.is_empty() {
        return Err(opts.usage().into());
    }
    let mut failures = 0usize;
    for path in &opts.positional {
        match pml_mpi::core::verify_artifact_file(Path::new(path)) {
            Ok(kind) => println!("{path}: OK ({kind})"),
            Err(e) => {
                failures += 1;
                eprintln!("FAIL {e}");
            }
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} artifact(s) failed verification",
            opts.positional.len()
        )
        .into());
    }
    Ok(())
}

fn cmd_verify_schedules(opts: &Opts) -> Result<(), Box<dyn Error>> {
    use pml_mpi::collectives::schedcheck;

    let (failures, checked) = if opts.positional.is_empty() {
        let (max_world, sizes) = grid_opts(opts)?;
        let tally = schedcheck::check_grid(max_world, &sizes);
        for ((algo, p, size), e) in &tally.failed {
            eprintln!("FAIL {} p={p} size={size}: {e}", algo.name());
        }
        for (algo, n) in &tally.passed {
            println!("{algo}: {n} cells OK");
        }
        let (failures, checked) = (tally.failed.len(), tally.cells());
        println!(
            "verified {checked} (algorithm, world, size) cells statically, {failures} failure(s)"
        );
        (failures, checked)
    } else {
        let mut failures = 0usize;
        for path in &opts.positional {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let verdict = serde_json::from_str::<schedcheck::ScheduleDoc>(&text)
                .map_err(|e| format!("parse: {e}"))
                .and_then(|doc| doc.check().map(|()| doc).map_err(|e| e.to_string()));
            match verdict {
                Ok(doc) => println!(
                    "{path}: OK ({} p={} size={})",
                    doc.collective.name(),
                    doc.schedule.world,
                    doc.size
                ),
                Err(e) => {
                    failures += 1;
                    eprintln!("FAIL {path}: {e}");
                }
            }
        }
        (failures, opts.positional.len())
    };
    if failures > 0 {
        return Err(format!("{failures} of {checked} schedule check(s) failed").into());
    }
    Ok(())
}

/// The sweep grid `verify --schedules` and `verify --costs` share.
fn grid_opts(opts: &Opts) -> Result<(u32, Vec<usize>), Box<dyn Error>> {
    let max_world = opts.value("max-world", Some(16))?;
    if max_world < 2 {
        return Err("--max-world must be at least 2".into());
    }
    let sizes = match opts.get("blocks") {
        Some(csv) => csv
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("--blocks expects integers, got {s:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![16, 21],
    };
    if sizes.is_empty() {
        return Err("--blocks needs at least one size".into());
    }
    Ok((max_world, sizes))
}

/// `verify --costs`: the static derive pass, then the differential against
/// simnet virtual time at the top-1 bar the `verify-costs` CI lane holds.
fn cmd_verify_costs(opts: &Opts) -> Result<(), Box<dyn Error>> {
    use pml_mpi::collectives::schedcost;

    if !opts.positional.is_empty() {
        return Err("verify --costs takes no files; the grid is built in".into());
    }
    let (max_world, sizes) = grid_opts(opts)?;
    let cluster = opts.get("cluster").unwrap_or("RI");
    let entry = by_name(cluster).ok_or_else(|| format!("unknown cluster {cluster:?}"))?;

    // Pass 1: every grid cell must yield a polynomial statically.
    let derived = {
        let _derive = span!("verify.costs.derive");
        schedcost::derive_grid(max_world, &sizes)
    };
    if let Some(((algo, p, size), ())) = derived.failed.first() {
        let name = algo.name();
        return Err(format!("no cost polynomial for {name} p={p} size={size}").into());
    }
    for (algo, n) in &derived.passed {
        println!("{algo}: {n} polynomials derived");
    }
    println!(
        "derived {} cost polynomials statically (zero schedule executions)",
        derived.cells()
    );

    // Pass 2: the differential against simnet virtual time.
    let report = {
        let _diff = span!("verify.costs.differential");
        schedcost::differential_report(&entry.spec.node, max_world, &sizes)
    };
    let (bar, mut failures) = (schedcost::TOP1_BAR_PERCENT, 0usize);
    for c in Collective::ALL {
        let (agree, total) = report.top1(c);
        if total == 0 {
            continue;
        }
        let ok = report.meets_top1_bar(c);
        let below = (!ok).then(|| format!("  << below {bar}%"));
        println!(
            "{}: top-1 agreement {agree}/{total} ({:.1}%){}",
            c.name(),
            100.0 * agree as f64 / total as f64,
            below.unwrap_or_default(),
        );
        failures += usize::from(!ok);
    }
    println!(
        "{} differential cells on {cluster}, mean Spearman rho {:.3}",
        report.cells.len(),
        report.mean_spearman()
    );
    if failures > 0 {
        return Err(format!("{failures} collective(s) below {bar}% top-1 agreement").into());
    }
    Ok(())
}

/// Observability showcase: drive a small dataset → train → table → tuner
/// pipeline and dump everything the instrumentation collected — the
/// dataset cache's warnings, the metrics registry, and (via `main`'s exit
/// path) the span tree. Tracing is always on for this subcommand.
fn cmd_stats(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let coll = match opts.positional.as_slice() {
        [] => Collective::Alltoall,
        [c] => parse_collective(c)?,
        _ => return Err(opts.usage().into()),
    };
    let cluster = opts.get("cluster").unwrap_or("RI");
    let mut engine = build_engine(opts);
    let table = engine.tuning_table(cluster, coll)?;

    // Exercise the runtime path too: probe the fresh table on-grid (exact
    // cell, twice), off-grid (nearest bucket), and at an odd shape, so the
    // fallback-depth histogram fills.
    let tuner = Tuner::new([table.clone()]);
    let mut depths: BTreeMap<pml_mpi::FallbackDepth, usize> = BTreeMap::new();
    for &(nodes, ppn, msg) in &[(2u32, 4u32, 64usize), (2, 4, 64), (2, 4, 100), (3, 5, 777)] {
        let (_, depth) = tuner.select_traced(coll, JobConfig::new(nodes, ppn, msg));
        *depths.entry(depth).or_default() += 1;
    }
    let cells = table.len();
    println!("{cluster} {coll}: {cells} table cells; probes by fallback depth: {depths:?}");

    // The dataset loads' warnings (cache recoveries), one line each.
    let warnings = engine.warnings();
    println!("\nEVENTS ({}):", warnings.len());
    for w in &warnings {
        println!("  [warn] cache: {w}");
    }

    let snap = obs::metrics::snapshot();
    println!("\nMETRICS ({} total):", snap.total_metrics());
    for (name, v) in &snap.counters {
        println!("  counter    {name:<28} {v}");
    }
    for (name, v) in &snap.gauges {
        println!("  gauge      {name:<28} {v}");
    }
    for (name, h) in &snap.histograms {
        println!(
            "  histogram  {name:<28} count {} sum {} overflow {}",
            h.count, h.sum, h.overflow
        );
    }
    eprintln!("\nspan tree (total/self times) follows on stderr:");
    Ok(())
}

// ---------------------------------------------------------------------------
// Serving: the selection path as a daemon (crates/serve)

/// The daemon's request observability; `--slo FILE` must exist and parse,
/// and without it the daemon tracks no SLO targets.
fn obs_config_from(opts: &Opts) -> Result<pml_mpi::serve::ObsConfig, String> {
    let defaults = pml_mpi::serve::ObsConfig::default();
    let slo = opts.get("slo").map(|path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--slo {path}: {e}"))?;
        pml_mpi::serve::targets_from_json(&text, path)
    });
    Ok(pml_mpi::serve::ObsConfig {
        trace_requests: opts.get("no-request-trace").is_none(),
        slow_threshold_ns: opts
            .value(
                "slow-threshold-us",
                Some(defaults.slow_threshold_ns / 1_000),
            )?
            .saturating_mul(1_000),
        slo: slo.transpose()?,
        quality_sample: opts.value("quality-sample", Some(defaults.quality_sample))?,
        quality_cluster: opts.get("quality-cluster").map(str::to_string),
    })
}

fn cmd_serve(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let socket = PathBuf::from(opts.socket()?);
    let model_dir = PathBuf::from(opts.get("model").ok_or("missing required --model DIR")?);
    let obs = obs_config_from(opts)?;
    if let Some(slo) = obs.slo.as_ref() {
        eprintln!(
            "slo targets from {}: p50 {} ns, p99 {} ns",
            slo.source, slo.p50_ns, slo.p99_ns
        );
    }
    let term = pml_mpi::serve::install_termination_flag();
    let artifacts = pml_mpi::serve::load_artifacts(&model_dir)?;
    for w in &artifacts.warnings {
        eprintln!("warning: {w}");
    }
    let batch = pml_mpi::serve::BatchConfig::default();
    let server = pml_mpi::serve::Server::with_artifacts(&socket, artifacts, batch, obs)?;
    eprintln!(
        "pml-serve/v1 listening on {} (SIGTERM or a shutdown frame stops it)",
        socket.display()
    );
    server.run(term)?;
    eprintln!("pml-serve: clean shutdown");
    Ok(())
}

fn cmd_client(opts: &Opts) -> Result<(), Box<dyn Error>> {
    use std::io::BufRead;
    let mut client = Client::connect(opts.socket()?)?;
    let mut sender = Client::from(client.stream().try_clone()?);
    // Replies are read here and frames sent from a thread of their own, so
    // the daemon's hang-up ends the client even while stdin is idle (the
    // thread is left detached in a stdin read nothing can interrupt). At
    // stdin's end it reports how many frames it sent, then half-closes: the
    // daemon answers them all and closes its end.
    let (ended, stdin_end) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let sent = (|| -> std::io::Result<usize> {
            let mut sent = 0;
            for line in std::io::stdin().lock().lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                sent += 1;
                if sender.send(&line).is_err() {
                    break; // the daemon is gone, as the reads will find
                }
            }
            Ok(sent)
        })();
        ended.send(sent).ok();
        sender.stream().shutdown(std::net::Shutdown::Write).ok();
    });
    let (mut reply, mut received) = (String::new(), 0);
    while client.recv(&mut reply)? {
        print!("{reply}");
        received += 1;
    }
    match stdin_end.try_recv() {
        Ok(Ok(sent)) if received >= sent => Ok(()),
        Ok(Err(e)) => Err(e.into()),
        _ => Err("daemon closed the connection".into()),
    }
}

fn cmd_watch(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let socket = Path::new(opts.socket()?);
    let interval_ms = opts.value("interval-ms", Some(1000))?;
    let count = opts.value("count", Some(0))?;
    watch::frames(socket, interval_ms, count, |frame| {
        if opts.has("raw") {
            print!("{frame}");
        } else {
            print!("{}", watch::render(&watch::parse_tick(frame)?));
        }
        std::io::stdout().flush().ok();
        Ok(())
    })?;
    Ok(())
}

/// One loadgen worker: its own connection, its own seeded rng, synchronous
/// round-trips. Connection setup happens before any timing; the first
/// `warmup` requests are sent and checked but not recorded, so the
/// percentile ladder (and its max) measures the steady state, not the
/// daemon's cold caches. Returns (per-request ns, non-ok reply count, the
/// instants of the first timed send and the last timed reply).
fn loadgen_worker(
    socket: &str,
    count: usize,
    warmup: usize,
    seed: u64,
    collective: Collective,
    predict: bool,
) -> Result<(Vec<u64>, u64, Option<TimedSpan>), String> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut client = Client::connect(socket).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let zoo = pml_mpi::zoo();
    let mut latencies = Vec::with_capacity(count);
    let mut bad_replies = 0u64;
    let mut span: Option<TimedSpan> = None;
    let mut reply = String::with_capacity(256);
    for id in 0..warmup + count {
        // Sample a job shape from a random zoo cluster's benchmark grids;
        // a quarter of the messages are nudged off-grid so the daemon's
        // nearest-bucket path is exercised, not just exact cells.
        let entry = &zoo[rng.gen_range(0..zoo.len())];
        let nodes = entry.node_grid[rng.gen_range(0..entry.node_grid.len())];
        let ppn = entry.ppn_grid[rng.gen_range(0..entry.ppn_grid.len())];
        let mut msg = entry.msg_grid[rng.gen_range(0..entry.msg_grid.len())];
        if rng.gen_bool(0.25) {
            msg += 3;
        }
        let job = JobConfig::new(nodes, ppn, msg);
        let line = encode_request(&Request {
            id: Some(id as u64),
            op: if predict {
                Op::Predict {
                    cluster: entry.name().to_string(),
                    collective,
                    job,
                }
            } else {
                Op::Select { collective, job }
            },
        });
        let t0 = std::time::Instant::now();
        client
            .send(&line)
            .map_err(|e| format!("request {id}: write: {e}"))?;
        let open = client
            .recv(&mut reply)
            .map_err(|e| format!("request {id}: read: {e}"))?;
        let t1 = std::time::Instant::now();
        let ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
        if !open {
            return Err(format!("daemon closed the connection at request {id}"));
        }
        if id >= warmup {
            latencies.push(ns);
            span = Some((span.map_or(t0, |(first, _)| first), t1));
        }
        // The compact renderer never inserts spaces, so this substring
        // check is an exact ok-flag probe without a per-reply JSON parse.
        if !reply.contains(r#""ok":true"#) {
            bad_replies += 1;
        }
    }
    Ok((latencies, bad_replies, span))
}

/// `loadgen`'s JSON report.
#[derive(serde::Serialize)]
struct LoadgenReport {
    socket: String,
    op: &'static str,
    collective: &'static str,
    requests: usize,
    threads: usize,
    warmup_per_connection: usize,
    errors: u64,
    wall_s: f64,
    throughput_rps: f64,
    latency_ns: Latencies,
    /// The daemon's per-stage breakdown right after the run (`null` when
    /// it could not answer).
    stages: serde_json::JsonValue,
}

#[derive(serde::Serialize)]
struct Latencies {
    min: u64,
    p50: u64,
    p99: u64,
    p999: u64,
    max: u64,
    mean: u64,
}

/// One worker's first timed send and last timed reply.
type TimedSpan = (std::time::Instant, std::time::Instant);

/// `(wall_s, throughput_rps)` of a run: the timed requests divided by the
/// seconds from the earliest first timed send to the latest last timed
/// reply. Connecting and the `--warmup` round-trips lie outside every span,
/// so they cannot dilute the rate the way a clock around the whole run does.
fn timed_throughput(requests: usize, spans: &[TimedSpan]) -> (f64, f64) {
    let start = spans.iter().map(|s| s.0).min();
    let end = spans.iter().map(|s| s.1).max();
    let wall_s = start
        .zip(end)
        .map_or(0.0, |(a, b)| b.saturating_duration_since(a).as_secs_f64());
    (wall_s, requests as f64 / wall_s.max(1e-9))
}

fn cmd_loadgen(opts: &Opts) -> Result<(), Box<dyn Error>> {
    let socket = opts.socket()?.to_string();
    let total: usize = opts.value("requests", Some(100_000))?;
    let threads = opts.value::<usize>("threads", Some(4))?.clamp(1, 256);
    // Untimed per-connection warmup round-trips: enough to pull the
    // daemon's lazily-built state hot before any latency is recorded.
    let warmup: usize = opts.value("warmup", Some(32))?;
    let seed: u64 = opts.value("seed", Some(42))?;
    let collective = parse_collective(opts.get("collective").unwrap_or("alltoall"))?;
    let (op, predict) = match opts.get("op").unwrap_or("select") {
        "select" => ("select", false),
        "predict" => ("predict", true),
        op => return Err(format!("--op expects select or predict, got {op:?}").into()),
    };
    let runs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let count = total / threads + usize::from(i < total % threads);
                let seed = seed.wrapping_add(i as u64);
                let socket = &socket;
                scope
                    .spawn(move || loadgen_worker(socket, count, warmup, seed, collective, predict))
            })
            .collect();
        workers.into_iter().map(|w| w.join()).collect::<Vec<_>>()
    });
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut bad_replies = 0u64;
    let mut spans: Vec<TimedSpan> = Vec::with_capacity(threads);
    for run in runs {
        let (lat, bad, span) = run.map_err(|_| "loadgen worker panicked".to_string())??;
        latencies.extend(lat);
        bad_replies += bad;
        spans.extend(span);
    }
    let (wall_s, throughput) = timed_throughput(latencies.len(), &spans);
    if latencies.is_empty() {
        return Err("no requests completed".into());
    }
    latencies.sort_unstable();
    // One-shot watch snapshot right after the run: the daemon's windowed
    // per-stage breakdown (queue-wait / predict / reply p50/p99) rides
    // along in the report, so it says where the time went, not just the
    // client-side totals. A daemon that cannot answer (one without the
    // `watch` op) does not fail the run.
    let stages = watch::stages(Path::new(&socket)).unwrap_or_else(|e| {
        eprintln!("note: no daemon-side stage breakdown in the report ({e})");
        serde_json::JsonValue::Null
    });

    let pct = |q: f64| {
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let sum_ns: u64 = latencies.iter().sum();
    let doc = LoadgenReport {
        socket,
        op,
        collective: pml_mpi::serve::collective_wire_name(collective),
        requests: latencies.len(),
        threads,
        warmup_per_connection: warmup,
        errors: bad_replies,
        wall_s,
        throughput_rps: throughput,
        latency_ns: Latencies {
            min: latencies[0],
            p50: pct(0.50),
            p99: pct(0.99),
            p999: pct(0.999),
            max: latencies[latencies.len() - 1],
            mean: sum_ns / latencies.len() as u64,
        },
        stages,
    };
    let json = serde_json::to_string_pretty(&doc).map_err(|e| format!("rendering JSON: {e}"))?;
    write_or_print(opts.get("out"), &json, "loadgen report")?;
    let (n, l) = (doc.requests, &doc.latency_ns);
    eprintln!(
        "{n} requests in {wall_s:.2}s over {threads} connection(s): {throughput:.0} req/s, \
         p50 {} ns, p99 {} ns, p999 {} ns",
        l.p50, l.p99, l.p999
    );
    if bad_replies > 0 {
        return Err(format!("{bad_replies} request(s) got a non-ok reply").into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Two workers whose timed parts overlap: the span runs from the
    /// earlier start to the later end, whatever order they are listed in
    /// and however long either spent connecting and warming up before.
    #[test]
    fn loadgen_throughput_covers_only_the_timed_span() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let (a, b) = ((at(1000), at(3000)), (at(2000), at(5000)));
        assert_eq!(timed_throughput(8, &[a, b]), (4.0, 2.0));
        assert_eq!(timed_throughput(8, &[b, a]), (4.0, 2.0));
        assert_eq!(timed_throughput(8, &[a]), (2.0, 4.0));
    }

    /// The command line `line`, split at spaces.
    fn parse(line: &str) -> Result<Opts, String> {
        Opts::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    /// `--no-cache=0` must not read as the bare switch (which would turn
    /// the cache *off*): a switch given a value is an error.
    #[test]
    fn switch_given_a_value_is_an_error() {
        for bad in ["--no-cache=0", "--no-cache=false", "--no-cache="] {
            let err = parse(&format!("table {bad}")).err();
            assert_eq!(err.as_deref(), Some("--no-cache takes no value"), "{bad}");
        }
        let ok = parse("table --no-cache --out=x").unwrap();
        assert!(ok.has("no-cache"));
        assert_eq!(ok.get("out"), Some("x"));
    }

    #[test]
    fn help_names_every_subcommand_and_each_of_its_flags() {
        let help = help_text();
        let (listing, _examples) = help.split_once("\nEXAMPLES:").unwrap();
        let blocks: Vec<&str> = listing.split("\n  pml-mpi ").skip(1).collect();
        assert_eq!(blocks.len(), SUBCOMMANDS.len());
        let listed = |text: &str, f: &Flag| text.contains(&format!("--{} {}", f.name, f.value));
        for (cmd, block) in SUBCOMMANDS.iter().zip(blocks) {
            assert!(block.starts_with(cmd.name()), "{block}");
            assert!(cmd.flags.iter().all(|f| listed(block, f)), "{block}");
        }
        assert!(GLOBAL.iter().all(|f| listed(listing, f)), "{listing}");
    }

    /// The global flags go anywhere on the line; a flag that only another
    /// subcommand declares is as unknown as a typo.
    #[test]
    fn flags_are_read_wherever_they_stand() {
        for line in [
            "--trace --metrics-out m.json table RI alltoall",
            "table --trace RI alltoall --metrics-out m.json",
            "--metrics-out=m.json table RI --trace alltoall",
            "table RI alltoall --metrics-out=m.json --trace",
        ] {
            let opts = parse(line).unwrap();
            let words = [opts.cmd.name(), &opts.positional[0], &opts.positional[1]];
            assert_eq!(
                (words, opts.positional.len()),
                (["table", "RI", "alltoall"], 2)
            );
            assert_eq!(
                (opts.has("trace"), opts.get("metrics-out")),
                (true, Some("m.json"))
            );
        }
        assert_eq!(parse("--trace").unwrap().cmd.name(), "help");
        let needs = "--metrics-out needs a value";
        for (line, err) in [
            ("table RI alltoall --model m.json", "unknown option --model"),
            ("zoo --socket x", "unknown option --socket"),
            ("watch --socket s --requests 9", "unknown option --requests"),
            ("table RI alltoall --metrics-out", needs),
            ("--metrics-out", needs),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(err), "{line}");
        }
    }
}
