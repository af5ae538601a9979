//! `pml-mpi` — command-line front end for the selection framework: the
//! offline → online lifecycle, one subcommand per step (`pml-mpi help`
//! lists them).
//!
//! Two global options work on every subcommand: `--trace` renders the span
//! tree (per-stage total/self times) to stderr after the command finishes,
//! and `--metrics-out FILE` writes the `pml-obs/v3` metrics JSON document.
//! Both are observability-only: the tracer is enabled here at the CLI edge
//! with a monotonic clock, and artifacts stay byte-identical with or
//! without them (the `obs-determinism` CI lane holds that line).
//!
//! Argument parsing is hand rolled (the build is offline — no clap); every
//! user error surfaces as a message on stderr and exit code 1, never a
//! panic.

use pml_mpi::clusters::measure_cell;
use pml_mpi::obs;
use pml_mpi::obs::span;
use pml_mpi::serve::{encode_request, watch, Client, Op, Request};
use pml_mpi::{
    by_name, detect_node, Algorithm, AlgorithmSelector, Collective, EngineConfig, JobConfig,
    MvapichDefault, NodeSpec, OpenMpiDefault, PretrainedModel, SelectionEngine, Tuner,
    FEATURE_NAMES,
};
use std::collections::BTreeMap;
use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, obs_opts) = match extract_obs_opts(&raw) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    // `stats` is the observability showcase: it always traces, flags or not.
    let stats_run = args.first().is_some_and(|a| a == "stats");
    if obs_opts.enabled() || stats_run {
        obs::tracer().enable(std::sync::Arc::new(obs::MonotonicClock::new()));
    }
    let result = run(&args);
    finish_obs(&obs_opts, stats_run);
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type Subcommand = fn(&[String]) -> Result<(), Box<dyn Error>>;

/// Dispatch to a subcommand, inside its `cmd.<name>` root span.
fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let (span, cmd): (&'static str, Subcommand) = match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print_help();
            return Ok(());
        }
        Some("zoo") => ("cmd.zoo", |_| cmd_zoo()),
        Some("dataset") => ("cmd.dataset", cmd_dataset),
        Some("train") => ("cmd.train", cmd_train),
        Some("predict") => ("cmd.predict", cmd_predict),
        Some("table") => ("cmd.table", cmd_table),
        Some("compare") => ("cmd.compare", cmd_compare),
        Some("verify") => ("cmd.verify", cmd_verify),
        Some("stats") => ("cmd.stats", cmd_stats),
        Some("serve") => ("cmd.serve", cmd_serve),
        Some("loadgen") => ("cmd.loadgen", cmd_loadgen),
        Some("client") => ("cmd.client", cmd_client),
        Some("watch") => ("cmd.watch", cmd_watch),
        Some(other) => {
            return Err(format!("unknown subcommand {other:?} — run `pml-mpi help`").into())
        }
    };
    let _span = span!(span);
    cmd(&args[1..])
}

/// Global observability flags, stripped before subcommand dispatch so the
/// per-subcommand parsers never see them.
struct ObsOpts {
    trace: bool,
    metrics_out: Option<String>,
}

impl ObsOpts {
    fn enabled(&self) -> bool {
        self.trace || self.metrics_out.is_some()
    }
}

/// Split `--trace` / `--metrics-out FILE` (or `--metrics-out=FILE`) out of
/// the raw argument list; everything else passes through untouched.
fn extract_obs_opts(args: &[String]) -> Result<(Vec<String>, ObsOpts), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut opts = ObsOpts {
        trace: false,
        metrics_out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--trace" {
            opts.trace = true;
        } else if a == "--metrics-out" {
            let v = it
                .next()
                .cloned()
                .ok_or_else(|| "--metrics-out needs a value".to_string())?;
            opts.metrics_out = Some(v);
        } else if let Some(v) = a.strip_prefix("--metrics-out=") {
            opts.metrics_out = Some(v.to_string());
        } else {
            rest.push(a.clone());
        }
    }
    Ok((rest, opts))
}

/// After the subcommand returns (even on error): render the span tree to
/// stderr (`--trace`, or always for `stats`) and write the metrics JSON
/// (`--metrics-out`).
fn finish_obs(opts: &ObsOpts, stats_run: bool) {
    let tracer = obs::tracer();
    if !tracer.is_enabled() {
        return;
    }
    let forest = tracer.finish();
    if (opts.trace || stats_run) && !forest.is_empty() {
        eprint!("{}", forest.render());
    }
    if let Some(path) = &opts.metrics_out {
        let json = obs::metrics_json(&obs::metrics::snapshot(), Some(&forest));
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("error: writing {path}: {e}"),
        }
    }
}

fn print_help() {
    let bar = pml_mpi::collectives::schedcost::TOP1_BAR_PERCENT;
    println!(
        "\
pml-mpi — pre-trained ML selection of MPI collective algorithms

USAGE: pml-mpi <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
  zoo                              list the 18-cluster benchmark zoo
  dataset <collective>             generate or load the micro-benchmark dataset
  train <collective>               train the Random Forest for one collective
  predict <collective>             pick an algorithm for one job
  table <cluster> <collective>     emit a cluster's JSON tuning table
  compare <cluster> <collective>   ML vs library defaults vs oracle
  verify <FILE>...                 statically verify artifact files
  verify --schedules [FILE]...     statically verify communication schedules
                                   (no files: prove every registered algorithm
                                   over the (world, size) grid — zero execution)
  verify --costs                   derive every grid cell's symbolic α-β-γ cost
                                   polynomial statically, then hold the analytic
                                   ranking against simnet virtual time (≥{bar}%
                                   top-1 agreement per collective)
  stats [<collective>]             run a small pipeline, dump spans/metrics/events
  serve --socket PATH --model DIR  selection daemon over a Unix domain socket
  loadgen --socket PATH            replay synthetic requests, record latency
  client --socket PATH             stdin NDJSON frames -> socket -> stdout
  watch --socket PATH              stream live daemon observability snapshots
  help                             show this message

GLOBAL OPTIONS (any subcommand):
  --trace              print the span tree (stage timings) to stderr on exit
  --metrics-out FILE   write the pml-obs/v3 metrics JSON document to FILE

COMMON OPTIONS:
  --cache-dir DIR   dataset cache directory (default: ./data when present)
  --no-cache        regenerate datasets in memory, ignore any cache
  --out FILE        write the command's JSON artifact to FILE

VERIFY --schedules / --costs OPTIONS:
  --max-world N     largest world size in the sweep (default 16)
  --blocks CSV      comma-separated block/message sizes in bytes (default 16,21)
  --cluster NAME    zoo cluster whose hardware prices the polynomials
                    (--costs only; default: RI)

STATS OPTIONS:
  --cluster NAME    zoo cluster to pipeline (default: RI)

PREDICT OPTIONS:
  --cluster NAME    use a zoo cluster's hardware
  --lscpu FILE      captured `lscpu` output (with --ibstat; instead of --cluster)
  --ibstat FILE     captured `ibstat` output
  --lspci FILE      captured `lspci -vv` link status (optional; Gen3 x16 assumed)
  --mem-bw GBS      measured STREAM bandwidth (optional with --lscpu)
  --model FILE      load a trained model JSON instead of training
  --nodes N --ppn P --msg BYTES    the job (required)

COMPARE OPTIONS:
  --nodes N --ppn P [--msg BYTES]  fixed job shape; without --msg a
                                   1 B … 1 MiB power-of-two sweep runs

SERVE OPTIONS:
  --socket PATH     Unix domain socket to listen on (required)
  --model DIR       artifact dir: tuning tables as DIR/*.json, pre-trained
                    models as DIR/models/*.json (required)
  --no-request-trace       disable per-request stage attribution
  --slow-threshold-us US   slow-ring capture threshold (default 1000)
  --slo FILE        SLO targets, {{\"target_p50_ns\":…,\"target_p99_ns\":…}}
                    (the repo pins them in slo.json; default: none)
  --quality-sample K       re-score 1-in-K served decisions through the
                           analytic referee (default 32; 0 disables)
  --quality-cluster NAME   score against this zoo cluster's hardware
                           instead of each request's own cluster label

WATCH OPTIONS:
  --socket PATH     daemon socket to watch (required)
  --interval-ms MS  snapshot spacing (default 1000)
  --count N         stop after N snapshots (default 0 = stream forever)
  --raw             print the NDJSON frames instead of the rendered view

LOADGEN OPTIONS:
  --socket PATH     daemon socket to replay against (required)
  --requests N      total requests across all threads (default 100000)
  --threads T       concurrent client connections (default 4)
  --warmup N        untimed warmup requests per connection (default 32)
  --collective C    collective to query (default alltoall)
  --op OP           select | predict (default select)
  --seed N          job-shape sampling seed (default 42)
  --out FILE        write the JSON report (default: stdout); throughput_rps is
                    timed requests / wall_s, first timed send to last timed
                    reply over all connections (no connect, no warmup)

EXAMPLES:
  pml-mpi train allgather --out model_ag.json
  pml-mpi predict allgather --cluster Frontera --nodes 16 --ppn 56 --msg 4096
  pml-mpi predict alltoall --lscpu examples/captures/lscpu_frontera.txt \\
      --ibstat examples/captures/ibstat_edr.txt --nodes 8 --ppn 56 --msg 65536
  pml-mpi table Frontera allgather --out frontera_allgather.json
  pml-mpi table RI alltoall --trace --metrics-out metrics.json
  pml-mpi compare Frontera alltoall --nodes 16 --ppn 56
  pml-mpi verify model_ag.json frontera_allgather.json
  pml-mpi verify --schedules --max-world 16 --blocks 16,21
  pml-mpi verify --costs --cluster RI
  pml-mpi stats alltoall --cluster RI
  pml-mpi serve --socket /tmp/pml.sock --model artifacts/
  printf '{{\"v\":\"pml-serve/v1\",\"id\":1,\"op\":\"select\",\"collective\":\"alltoall\",\
\"nodes\":4,\"ppn\":8,\"msg_size\":1024}}\\n' | pml-mpi client --socket /tmp/pml.sock
  pml-mpi loadgen --socket /tmp/pml.sock --requests 100000 --threads 8 --out report.json
  pml-mpi watch --socket /tmp/pml.sock --interval-ms 1000"
    );
}

/// Hand-rolled `--flag value` / positional splitter. Unknown flags are an
/// error so typos do not silently change behaviour.
struct Opts {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Opts {
    /// `switches` take no value; every other `--flag` consumes one.
    fn parse(args: &[String], known: &[&str], switches: &[&str]) -> Result<Opts, String> {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let (name, inline) = match name.split_once('=') {
                    Some((n, v)) => (n, Some(v.to_string())),
                    None => (name, None),
                };
                if switches.contains(&name) {
                    if inline.is_some() {
                        return Err(format!("--{name} takes no value"));
                    }
                    flags.insert(name.to_string(), String::new());
                } else if known.contains(&name) {
                    let v = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| format!("--{name} needs a value"))?,
                    };
                    flags.insert(name.to_string(), v);
                } else {
                    return Err(format!("unknown option --{name}"));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Opts { positional, flags })
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
    let cache_dir = if opts.has("no-cache") {
        None
    } else {
        match opts.get("cache-dir") {
            Some(d) => Some(PathBuf::from(d)),
            None => Path::new("data").is_dir().then(|| PathBuf::from("data")),
        }
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

fn cmd_zoo() -> Result<(), Box<dyn Error>> {
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

fn cmd_dataset(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["cache-dir", "out"], &["no-cache"])?;
    let [coll] = opts.positional.as_slice() else {
        return Err("usage: pml-mpi dataset <collective> [--out FILE]".into());
    };
    let coll = parse_collective(coll)?;
    let engine = build_engine(&opts);
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

fn cmd_train(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["cache-dir", "out"], &["no-cache"])?;
    let [coll] = opts.positional.as_slice() else {
        return Err("usage: pml-mpi train <collective> [--out FILE]".into());
    };
    let coll = parse_collective(coll)?;
    let mut engine = build_engine(&opts);
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

fn cmd_predict(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(
        args,
        &[
            "cache-dir",
            "cluster",
            "lscpu",
            "ibstat",
            "lspci",
            "mem-bw",
            "model",
            "nodes",
            "ppn",
            "msg",
        ],
        &["no-cache"],
    )?;
    let [coll] = opts.positional.as_slice() else {
        return Err(
            "usage: pml-mpi predict <collective> --nodes N --ppn P --msg BYTES \
             (--cluster NAME | --lscpu F --ibstat F)"
                .into(),
        );
    };
    let coll = parse_collective(coll)?;
    let job = job_flags(&opts, None)?;
    let node = resolve_node(&opts)?;
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
            let mut engine = build_engine(&opts);
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

fn cmd_table(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["cache-dir", "out"], &["no-cache"])?;
    let [cluster, coll] = opts.positional.as_slice() else {
        return Err("usage: pml-mpi table <cluster> <collective> [--out FILE]".into());
    };
    let coll = parse_collective(coll)?;
    let mut engine = build_engine(&opts);
    let table = engine.tuning_table(cluster, coll)?;
    report_warnings(&engine);
    eprintln!("{cluster} {coll}: {} table entries", table.len());
    write_or_print(opts.get("out"), &table.to_json()?, "tuning table")
}

fn cmd_compare(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["cache-dir", "nodes", "ppn", "msg"], &["no-cache"])?;
    let [cluster, coll] = opts.positional.as_slice() else {
        return Err(
            "usage: pml-mpi compare <cluster> <collective> --nodes N --ppn P [--msg BYTES]".into(),
        );
    };
    let coll = parse_collective(coll)?;
    // Without --msg the sweep runs; its first size stands in for the check.
    let job = job_flags(&opts, Some(1))?;
    let sizes: Vec<usize> = match opts.get("msg") {
        Some(_) => vec![job.msg_size],
        None => (0..21).map(|i| 1usize << i).collect(),
    };
    let mut engine = build_engine(&opts);
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
    let short = |a: Algorithm| a.name().to_string();
    for &msg in &sizes {
        let job = JobConfig {
            msg_size: msg,
            ..job
        };
        let record = measure_cell(&entry, coll, job.nodes, job.ppn, msg, &engine_cfg_datagen())?;
        let ml = model.predict(&entry.spec.node, job);
        let m = mva.select(coll, job);
        let o = ompi.select(coll, job);
        println!(
            "{:<9} {:<22} {:>9} {:<22} {:>9} {:<22} {:>9} {:<22}",
            msg,
            short(ml),
            fmt_us(record.runtime_of(ml)),
            short(m),
            fmt_us(record.runtime_of(m)),
            short(o),
            fmt_us(record.runtime_of(o)),
            format!(
                "{} ({})",
                short(record.best),
                fmt_us(Some(record.best_runtime()))
            ),
        );
    }
    Ok(())
}

/// `compare` re-measures cells with the same configuration the engine's
/// datasets use, so its oracle column matches the training distribution.
fn engine_cfg_datagen() -> pml_mpi::DatagenConfig {
    pml_mpi::DatagenConfig::default()
}

/// Statically verify artifact files (models, tuning tables, binned
/// matrices) without executing them; with `--schedules`, statically
/// verify communication schedules via the schedcheck dataflow analyzer;
/// with `--costs`, derive the symbolic α-β-γ cost polynomial of every
/// grid cell and hold the static ranking against simnet virtual time.
/// Prints one line per file; any failure is reported with its path and the
/// command exits nonzero after checking every file.
fn cmd_verify(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(
        args,
        &["max-world", "blocks", "cluster", "expect"],
        &["schedules", "costs"],
    )?;
    if opts.has("schedules") && opts.has("costs") {
        return Err("--schedules and --costs are separate passes; pick one".into());
    }
    if opts.has("costs") {
        return cmd_verify_costs(&opts);
    }
    if opts.has("schedules") {
        if opts.has("cluster") || opts.has("expect") {
            return Err("--cluster/--expect only apply with --costs".into());
        }
        return cmd_verify_schedules(&opts);
    }
    if opts.has("max-world") || opts.has("blocks") || opts.has("cluster") || opts.has("expect") {
        return Err(
            "--max-world/--blocks/--cluster/--expect only apply with --schedules or --costs".into(),
        );
    }
    if opts.positional.is_empty() {
        return Err(
            "usage: pml-mpi verify <FILE>... | verify --schedules [FILE]... | verify --costs"
                .into(),
        );
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

/// `verify --schedules`: with no files, statically prove every registered
/// algorithm over the full (world, size) grid — zero execution; with
/// files, check each as a `pml-sched/v1` schedule document. The grid is
/// world 2..=`--max-world` (default 16, non-powers-of-two included) at
/// each size in `--blocks` (default 16,21).
fn cmd_verify_schedules(opts: &Opts) -> Result<(), Box<dyn Error>> {
    use pml_mpi::collectives::schedcheck;

    let mut failures = 0usize;
    let mut checked = 0usize;
    if opts.positional.is_empty() {
        let (max_world, sizes) = grid_opts(opts)?;
        let mut by_algo: BTreeMap<String, usize> = BTreeMap::new();
        for (algo, p, size) in schedcheck::sweep_grid(max_world, &sizes) {
            checked += 1;
            match schedcheck::check_algorithm(algo, p, size) {
                Ok(()) => *by_algo.entry(algo.name().to_string()).or_insert(0) += 1,
                Err(e) => {
                    failures += 1;
                    eprintln!("FAIL {} p={p} size={size}: {e}", algo.name());
                }
            }
        }
        for (name, n) in &by_algo {
            println!("{name}: {n} cells OK");
        }
        println!(
            "verified {checked} (algorithm, world, size) cells statically, {failures} failure(s)"
        );
    } else {
        for path in &opts.positional {
            checked += 1;
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
    }
    if failures > 0 {
        return Err(format!("{failures} of {checked} schedule check(s) failed").into());
    }
    Ok(())
}

/// The (max world, block sizes) sweep grid shared by `verify --schedules`
/// and `verify --costs`: world 2..=`--max-world` (default 16) at each
/// size in `--blocks` (default 16,21).
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

/// `verify --costs`: two static passes over the schedcheck grid. First,
/// derive the symbolic α-β-γ cost polynomial of every (algorithm, world,
/// size) cell — pure IR analysis, zero schedule executions. Second, the
/// differential: rank each cell's algorithms analytically and by simnet
/// virtual time, and hold per-collective top-1 agreement at ≥90% (the
/// bar the `verify-costs` CI lane enforces).
fn cmd_verify_costs(opts: &Opts) -> Result<(), Box<dyn Error>> {
    use pml_mpi::collectives::{schedcheck, schedcost};

    if !opts.positional.is_empty() {
        return Err("verify --costs takes no files; the grid is built in".into());
    }
    let (max_world, sizes) = grid_opts(opts)?;
    let cluster = opts.get("cluster").unwrap_or("RI");
    let entry = by_name(cluster).ok_or_else(|| format!("unknown cluster {cluster:?}"))?;

    // Pass 1: every grid cell must yield a polynomial statically.
    let _derive = span!("verify.costs.derive");
    let mut derived = 0usize;
    let mut by_algo: BTreeMap<String, usize> = BTreeMap::new();
    for (algo, p, size) in schedcheck::sweep_grid(max_world, &sizes) {
        let layout = schedcost::cell_layout(p);
        match schedcost::poly_for(algo, layout, size) {
            Some(_) => {
                derived += 1;
                *by_algo.entry(algo.name().to_string()).or_insert(0) += 1;
            }
            None => {
                return Err(
                    format!("no cost polynomial for {} p={p} size={size}", algo.name()).into(),
                )
            }
        }
    }
    drop(_derive);
    for (name, n) in &by_algo {
        println!("{name}: {n} polynomials derived");
    }
    println!("derived {derived} cost polynomials statically (zero schedule executions)");

    // Pass 2: the differential against simnet virtual time.
    let _diff = span!("verify.costs.differential");
    let report = schedcost::differential_report(&entry.spec.node, max_world, &sizes);
    drop(_diff);
    let (bar, mut failures) = (schedcost::TOP1_BAR_PERCENT, 0usize);
    for c in Collective::ALL {
        let (agree, total) = report.top1(c);
        if total == 0 {
            continue;
        }
        let ok = report.meets_top1_bar(c);
        let below = if ok {
            String::new()
        } else {
            format!("  << below {bar}%")
        };
        println!(
            "{}: top-1 agreement {agree}/{total} ({:.1}%){below}",
            c.name(),
            100.0 * agree as f64 / total as f64,
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

    // Optional pinned fixture: the committed known-good rankings must
    // reproduce exactly (catches silent cost-model drift that stays
    // above the 90% bar).
    if let Some(path) = opts.get("expect") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let fixture: CostsFixture =
            serde_json::from_str(&text).map_err(|e| format!("{path}: parse: {e}"))?;
        if fixture.v != "pml-costs/v1" {
            return Err(format!("{path}: unknown fixture version {:?}", fixture.v).into());
        }
        if fixture.cluster != cluster {
            return Err(format!(
                "{path}: fixture is for cluster {:?}, run used {cluster:?}",
                fixture.cluster
            )
            .into());
        }
        for cell in &fixture.cells {
            let coll = parse_collective(&cell.collective)?;
            let layout = schedcost::cell_layout(cell.world);
            let got: Vec<&str> = schedcost::rank_static(coll, &entry.spec.node, layout, cell.size)
                .iter()
                .map(|(a, _)| a.name())
                .collect();
            if got != cell.ranking.iter().map(String::as_str).collect::<Vec<_>>() {
                return Err(format!(
                    "analytic ranking drifted for {} p={} size={}: fixture {:?}, got {got:?}",
                    cell.collective, cell.world, cell.size, cell.ranking
                )
                .into());
            }
        }
        println!(
            "{} pinned ranking(s) from {path} reproduced exactly",
            fixture.cells.len()
        );
    }
    Ok(())
}

/// Committed known-good analytic rankings (`pml-costs/v1`), checked by
/// `verify --costs --expect FILE` / the `verify-costs` CI lane.
#[derive(serde::Deserialize)]
struct CostsFixture {
    v: String,
    cluster: String,
    cells: Vec<CostsCell>,
}

#[derive(serde::Deserialize)]
struct CostsCell {
    collective: String,
    world: u32,
    size: usize,
    ranking: Vec<String>,
}

/// Observability showcase: drive a small dataset → train → table → tuner
/// pipeline and dump everything the instrumentation collected — the
/// dataset cache's warnings, the metrics registry, and (via `main`'s exit
/// path) the span tree. Tracing is always on for this subcommand.
fn cmd_stats(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["cache-dir", "cluster"], &["no-cache"])?;
    let coll = match opts.positional.as_slice() {
        [] => Collective::Alltoall,
        [c] => parse_collective(c)?,
        _ => return Err("usage: pml-mpi stats [<collective>] [--cluster NAME]".into()),
    };
    let cluster = opts.get("cluster").unwrap_or("RI");
    let mut engine = build_engine(&opts);
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

/// The daemon's SLO targets: `--slo FILE` must exist and parse; without
/// the flag the daemon tracks none.
fn slo_from_opts(opts: &Opts) -> Result<Option<pml_mpi::serve::SloTargets>, String> {
    let Some(path) = opts.get("slo") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("--slo {path}: {e}"))?;
    pml_mpi::serve::targets_from_json(&text, path).map(Some)
}

fn obs_config_from(opts: &Opts) -> Result<pml_mpi::serve::ObsConfig, String> {
    let defaults = pml_mpi::serve::ObsConfig::default();
    Ok(pml_mpi::serve::ObsConfig {
        trace_requests: opts.get("no-request-trace").is_none(),
        slow_threshold_ns: opts
            .value(
                "slow-threshold-us",
                Some(defaults.slow_threshold_ns / 1_000),
            )?
            .saturating_mul(1_000),
        slo: slo_from_opts(opts)?,
        quality_sample: opts.value("quality-sample", Some(defaults.quality_sample))?,
        quality_cluster: opts.get("quality-cluster").map(str::to_string),
    })
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(
        args,
        &[
            "socket",
            "model",
            "slow-threshold-us",
            "slo",
            "quality-sample",
            "quality-cluster",
        ],
        &["no-request-trace"],
    )?;
    let socket = PathBuf::from(opts.socket()?);
    let model_dir = PathBuf::from(opts.get("model").ok_or("missing required --model DIR")?);
    let obs = obs_config_from(&opts)?;
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

fn cmd_client(args: &[String]) -> Result<(), Box<dyn Error>> {
    use std::io::BufRead;
    let opts = Opts::parse(args, &["socket"], &[])?;
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

/// `watch`: stream live daemon observability snapshots to the terminal.
fn cmd_watch(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["socket", "interval-ms", "count"], &["raw"])?;
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
    op: &str,
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
            op: match op {
                "predict" => Op::Predict {
                    cluster: entry.name().to_string(),
                    collective,
                    job,
                },
                _ => Op::Select { collective, job },
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

fn cmd_loadgen(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(
        args,
        &[
            "socket",
            "requests",
            "threads",
            "warmup",
            "seed",
            "collective",
            "op",
            "out",
        ],
        &[],
    )?;
    let socket = opts.socket()?.to_string();
    let total: usize = opts.value("requests", Some(100_000))?;
    let threads = opts.value::<usize>("threads", Some(4))?.clamp(1, 256);
    // Untimed per-connection warmup round-trips: enough to pull the
    // daemon's lazily-built state hot before any latency is recorded.
    let warmup: usize = opts.value("warmup", Some(32))?;
    let seed: u64 = opts.value("seed", Some(42))?;
    let collective = parse_collective(opts.get("collective").unwrap_or("alltoall"))?;
    let op = opts.get("op").unwrap_or("select").to_string();
    if op != "select" && op != "predict" {
        return Err(format!("--op expects select or predict, got {op:?}").into());
    }

    let workers: Vec<_> = (0..threads)
        .map(|i| {
            let socket = socket.clone();
            let op = op.clone();
            let count = total / threads + usize::from(i < total % threads);
            std::thread::spawn(move || {
                loadgen_worker(
                    &socket,
                    count,
                    warmup,
                    seed.wrapping_add(i as u64),
                    collective,
                    &op,
                )
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut bad_replies = 0u64;
    let mut spans: Vec<TimedSpan> = Vec::with_capacity(threads);
    for handle in workers {
        let (lat, bad, span) = handle
            .join()
            .map_err(|_| "loadgen worker panicked".to_string())??;
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
    let uint = |v: u64| serde_json::JsonValue::UInt(v);
    let doc = serde_json::JsonValue::Object(vec![
        (
            "socket".to_string(),
            serde_json::JsonValue::Str(socket.clone()),
        ),
        ("op".to_string(), serde_json::JsonValue::Str(op.clone())),
        (
            "collective".to_string(),
            serde_json::JsonValue::Str(
                pml_mpi::serve::collective_wire_name(collective).to_string(),
            ),
        ),
        ("requests".to_string(), uint(latencies.len() as u64)),
        ("threads".to_string(), uint(threads as u64)),
        ("warmup_per_connection".to_string(), uint(warmup as u64)),
        ("errors".to_string(), uint(bad_replies)),
        ("wall_s".to_string(), serde_json::JsonValue::Float(wall_s)),
        (
            "throughput_rps".to_string(),
            serde_json::JsonValue::Float(throughput),
        ),
        (
            "latency_ns".to_string(),
            serde_json::JsonValue::Object(vec![
                ("min".to_string(), uint(latencies[0])),
                ("p50".to_string(), uint(pct(0.50))),
                ("p99".to_string(), uint(pct(0.99))),
                ("p999".to_string(), uint(pct(0.999))),
                ("max".to_string(), uint(latencies[latencies.len() - 1])),
                ("mean".to_string(), uint(sum_ns / latencies.len() as u64)),
            ]),
        ),
        ("stages".to_string(), stages),
    ]);
    let json = serde_json::to_string_pretty(&doc).map_err(|e| format!("rendering JSON: {e}"))?;
    write_or_print(opts.get("out"), &json, "loadgen report")?;
    eprintln!(
        "{} requests in {wall_s:.2}s over {threads} connection(s): {throughput:.0} req/s, \
         p50 {} ns, p99 {} ns, p999 {} ns",
        latencies.len(),
        pct(0.50),
        pct(0.99),
        pct(0.999)
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

    /// `--no-cache=0` must not read as the bare switch (which would turn
    /// the cache *off*): a switch given a value is an error.
    #[test]
    fn switch_given_a_value_is_an_error() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for bad in ["--no-cache=0", "--no-cache=false", "--no-cache="] {
            let err = Opts::parse(&args(&[bad]), &["out"], &["no-cache"]).err();
            assert_eq!(err.as_deref(), Some("--no-cache takes no value"), "{bad}");
        }
        let ok = Opts::parse(&args(&["--no-cache", "--out=x"]), &["out"], &["no-cache"]).unwrap();
        assert!(ok.has("no-cache"));
        assert_eq!(ok.get("out"), Some("x"));
    }
}
