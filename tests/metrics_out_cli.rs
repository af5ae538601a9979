//! `--metrics-out` is part of the run: a metrics file that cannot be
//! written makes `pml-mpi` exit 1 with the reason, after the command's own
//! output, and a written one leaves the exit code to the command.

use std::process::Command;

fn zoo_with_metrics_out(path: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pml-mpi"))
        .arg("zoo")
        .arg("--metrics-out")
        .arg(path)
        .output()
        .expect("spawning pml-mpi")
}

#[test]
fn unwritable_metrics_out_exits_1() {
    let path = std::env::temp_dir()
        .join(format!("pml_no_such_dir_{}", std::process::id()))
        .join("m.json");
    let out = zoo_with_metrics_out(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let want = format!("error: writing {}: ", path.display());
    assert!(stderr.lines().any(|l| l.starts_with(&want)), "{stderr}");
    assert!(!out.stdout.is_empty(), "the command itself ran");
}

#[test]
fn written_metrics_out_exits_0() {
    let path = std::env::temp_dir().join(format!("pml_metrics_{}.json", std::process::id()));
    let out = zoo_with_metrics_out(&path);
    let written = std::fs::read_to_string(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(written.expect("metrics file").starts_with('{'));
}
