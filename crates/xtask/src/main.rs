//! `cargo xtask` — correctness-tooling entry point.
//!
//! ```text
//! cargo xtask lint                      # run pml-lint: any violation fails
//! cargo xtask lint --list               # print every current violation, exit 0
//! cargo xtask verify-artifacts          # pml-mpi verify over committed + fresh artifacts
//! cargo xtask verify-schedules          # statically prove every registered schedule
//! cargo xtask verify-costs              # static cost polynomials vs simnet virtual time
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use xtask::lints::LintConfig;
use xtask::scan_workspace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("lint");
    let rest = &args[1.min(args.len())..];
    let result = match cmd {
        "lint" => cmd_lint(rest),
        "verify-artifacts" => cmd_verify_artifacts(rest),
        "verify-schedules" => cmd_verify_schedules(rest),
        "verify-costs" => cmd_verify_costs(rest),
        "help" | "--help" | "-h" => {
            eprintln!("usage: cargo xtask [lint [--list] | verify-artifacts | verify-schedules | verify-costs]");
            Ok(())
        }
        other => Err(format!(
            "unknown subcommand `{other}` (try `cargo xtask help`)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Workspace root: the manifest dir's grandparent when cargo provides it,
/// else the nearest ancestor of the cwd that has a `crates/xtask`.
fn find_root() -> Result<PathBuf, String> {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(&md);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            if root.join("Cargo.toml").is_file() {
                return Ok(root.to_path_buf());
            }
        }
    }
    let mut dir = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    loop {
        if dir.join("crates/xtask").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("could not locate the workspace root (run from inside the repo)".into());
        }
    }
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    if let Some(bad) = args.iter().find(|a| *a != "--list") {
        return Err(format!("unknown lint flag `{bad}`"));
    }
    let list = !args.is_empty();
    let root = find_root()?;
    let violations = scan_workspace(&root, &LintConfig::for_repo())?;
    if list {
        for v in &violations {
            println!("{v}");
        }
        println!("pml-lint: {} violation(s) total", violations.len());
        return Ok(());
    }
    if violations.is_empty() {
        println!("pml-lint: clean");
        return Ok(());
    }
    eprintln!("pml-lint: {} violation(s):", violations.len());
    for v in &violations {
        eprintln!("  {v}");
    }
    Err("pml-lint gate failed".into())
}

/// Static artifact-verification lane: run `pml-mpi verify` over every
/// committed artifact fixture plus a freshly generated model and tuning
/// table, so the writer → verifier roundtrip is gated in CI. Expected
/// JSON under `tests/fixtures/` that is not an artifact (the
/// `*_expected.json` prediction vectors) is skipped.
fn cmd_verify_artifacts(args: &[String]) -> Result<(), String> {
    if let Some(bad) = args.first() {
        return Err(format!("unknown verify-artifacts flag `{bad}`"));
    }
    let root = find_root()?;
    let out_dir = root.join("target/verify-artifacts");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    let pml = |cmd_args: &[&str]| -> Result<(), String> {
        let mut c = Command::new("cargo");
        c.current_dir(&root)
            .args(["run", "--release", "-q", "-p", "pml-mpi", "--"])
            .args(cmd_args);
        run(c, &format!("pml-mpi {}", cmd_args.join(" ")))
    };

    // Fresh artifacts, one per collective (the committed data/ cache makes
    // this fast — no simulation sweep).
    let model = out_dir.join("model_allgather.json").display().to_string();
    let table = out_dir.join("table_ri_alltoall.json").display().to_string();
    pml(&["train", "allgather", "--out", &model])?;
    pml(&["table", "RI", "alltoall", "--out", &table])?;

    // Committed artifact fixtures (currently the first-generation model
    // `tests/model_migration.rs` pins: 14-feature schema, SoA trees).
    let fixtures = root.join("tests/fixtures");
    let mut targets: Vec<String> = std::fs::read_dir(&fixtures)
        .map_err(|e| format!("reading {}: {e}", fixtures.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p
                    .file_stem()
                    .is_some_and(|s| s.to_string_lossy().ends_with("_expected"))
        })
        .map(|p| p.display().to_string())
        .collect();
    targets.sort();
    targets.push(model);
    targets.push(table);

    let mut verify_args = vec!["verify"];
    verify_args.extend(targets.iter().map(String::as_str));
    pml(&verify_args)?;
    println!("verify-artifacts: {} artifact(s) verified", targets.len());
    Ok(())
}

/// Static schedule-verification lane: prove every registered algorithm
/// correct over the full (world, size) grid — world 2..=16 including
/// non-powers-of-two, two block sizes — via `pml-mpi verify --schedules`,
/// with zero schedule execution. Then exercise both document paths: the
/// committed good fixture must verify and the committed corrupted fixture
/// must be rejected with a nonzero exit.
fn cmd_verify_schedules(args: &[String]) -> Result<(), String> {
    if let Some(bad) = args.first() {
        return Err(format!("unknown verify-schedules flag `{bad}`"));
    }
    let root = find_root()?;
    let pml_cmd = |cmd_args: &[&str]| -> Command {
        let mut c = Command::new("cargo");
        c.current_dir(&root)
            .args(["run", "--release", "-q", "-p", "pml-mpi", "--"])
            .args(cmd_args);
        c
    };

    run(
        pml_cmd(&[
            "verify",
            "--schedules",
            "--max-world",
            "16",
            "--blocks",
            "16,21",
        ]),
        "schedule grid sweep",
    )?;

    let good = root
        .join("tests/fixtures/schedules/allgather_p2_good.json")
        .display()
        .to_string();
    run(
        pml_cmd(&["verify", "--schedules", &good]),
        "good schedule fixture",
    )?;

    let corrupt = root
        .join("tests/fixtures/schedules/corrupt_drop_recv.json")
        .display()
        .to_string();
    let status = pml_cmd(&["verify", "--schedules", &corrupt])
        .status()
        .map_err(|e| format!("spawning corrupted-fixture check: {e}"))?;
    if status.success() {
        return Err(format!(
            "corrupted schedule fixture {corrupt} unexpectedly verified — the analyzer lost a check"
        ));
    }
    println!("verify-schedules: grid proven, good fixture OK, corrupted fixture rejected");
    Ok(())
}

/// Static cost-analysis lane: `pml-mpi verify --costs` derives the
/// symbolic α-β-γ polynomial of every schedcheck grid cell with zero
/// schedule execution and holds the analytic ranking against simnet
/// virtual time at the per-collective top-1 agreement bar. The committed
/// known-good rankings, which catch cost-model drift that stays above the
/// bar, are pinned by `tests/schedcost_golden.rs` on every `cargo test`.
fn cmd_verify_costs(args: &[String]) -> Result<(), String> {
    if let Some(bad) = args.first() {
        return Err(format!("unknown verify-costs flag `{bad}`"));
    }
    let mut c = Command::new("cargo");
    c.current_dir(find_root()?)
        .args(["run", "--release", "-q", "-p", "pml-mpi", "--"])
        .args(["verify", "--costs", "--cluster", "RI"]);
    run(c, "cost differential")?;
    println!("verify-costs: polynomials derived statically, differential at the top-1 bar");
    Ok(())
}

fn run(mut c: Command, what: &str) -> Result<(), String> {
    let status = c.status().map_err(|e| format!("spawning {what}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{what} failed ({status})"))
    }
}
