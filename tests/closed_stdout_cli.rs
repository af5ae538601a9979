//! A `pml-mpi` whose standard output is closed before it writes (`pml-mpi
//! zoo | true`) ends quietly with exit code 141, never a panic. Rust ignores
//! SIGPIPE, so the write fails with EPIPE; the pipe's reader is dropped
//! before the child starts, so every write does.

use std::process::{Command, Stdio};

fn run_with_closed_stdout(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_pml-mpi"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawning pml-mpi")
}

#[test]
fn closed_stdout_exits_141_without_a_panic() {
    for args in [
        &["zoo"][..],
        &["help"],
        &["verify", "--schedules", "--max-world", "4"],
        &["verify", "--costs", "--max-world", "4"],
    ] {
        let out = run_with_closed_stdout(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(141), "{args:?}: {stderr}");
        assert!(!stderr.contains("error"), "{args:?}: {stderr}");
    }
}
