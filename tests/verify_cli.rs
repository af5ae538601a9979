//! End-to-end coverage for `pml-mpi verify`: exit 0 on healthy artifacts
//! (the committed v1 fixture and freshly generated v2 model/table files),
//! nonzero per corruption class, and a usage error without arguments.

use pml_mpi::collectives::AlltoallAlgo;
use pml_mpi::{Algorithm, Collective, PretrainedModel, TuningTable};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn pml(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pml-mpi"))
        .args(args)
        .output()
        .expect("spawning pml-mpi")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pml-verify-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/model_v1_allgather.json")
}

fn total_table_json() -> String {
    let mut t = TuningTable::new("X", Collective::Alltoall);
    for (n, p, m, a) in [
        (2, 8, 64, AlltoallAlgo::Bruck),
        (2, 8, 65536, AlltoallAlgo::Pairwise),
        (16, 8, 64, AlltoallAlgo::ScatterDest),
        (16, 8, 65536, AlltoallAlgo::Pairwise),
    ] {
        t.insert(n, p, m, Algorithm::Alltoall(a)).unwrap();
    }
    t.to_json().unwrap()
}

#[test]
fn healthy_artifacts_exit_zero() {
    let dir = scratch("ok");
    // A current-layout model (the migrated v1 fixture) and a total table.
    let v1 = std::fs::read_to_string(fixture_path()).unwrap();
    let model = dir.join("model.json");
    std::fs::write(
        &model,
        PretrainedModel::from_json(&v1).unwrap().to_json().unwrap(),
    )
    .unwrap();
    let table = dir.join("table.json");
    std::fs::write(&table, total_table_json()).unwrap();

    let out = pml(&[
        "verify",
        fixture_path().to_str().unwrap(),
        model.to_str().unwrap(),
        table.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches("OK (model)").count(), 2, "{stdout}");
    assert_eq!(stdout.matches("OK (tuning table)").count(), 1, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn each_corruption_class_exits_nonzero() {
    let dir = scratch("bad");
    let v1 = std::fs::read_to_string(fixture_path()).unwrap();
    let model_json = PretrainedModel::from_json(&v1).unwrap().to_json().unwrap();

    // Truncated JSON: malformed.
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &model_json[..model_json.len() / 2]).unwrap();

    // Valid JSON, but no known artifact schema.
    let unknown = dir.join("unknown.json");
    std::fs::write(&unknown, "{\"a\": 1}").unwrap();

    // Structurally broken model: smash the first tree's leaf arena.
    let broken_model = dir.join("broken_model.json");
    let smashed = model_json.replacen("\"leaf_values\":[1.0", "\"leaf_values\":[0.5", 1);
    assert_ne!(smashed, model_json, "leaf arena not found to corrupt");
    std::fs::write(&broken_model, smashed).unwrap();

    // Non-total grid: 3 of the 2×1×2 cells.
    let partial_table = dir.join("partial_table.json");
    let mut t = TuningTable::new("X", Collective::Alltoall);
    for (n, p, m) in [(2, 8, 64), (2, 8, 65536), (16, 8, 64)] {
        t.insert(n, p, m, Algorithm::Alltoall(AlltoallAlgo::Bruck))
            .unwrap();
    }
    std::fs::write(&partial_table, t.to_json().unwrap()).unwrap();

    // Table whose entries belong to another collective.
    let foreign_table = dir.join("foreign_table.json");
    let flipped = total_table_json().replacen(
        "\"collective\": \"Alltoall\"",
        "\"collective\": \"Allgather\"",
        1,
    );
    assert!(
        flipped.contains("Allgather"),
        "collective field not found to flip"
    );
    std::fs::write(&foreign_table, flipped).unwrap();

    // A file that does not exist at all.
    let missing = dir.join("missing.json");

    for (path, needle) in [
        (&truncated, "malformed artifact"),
        (&unknown, "no known artifact schema"),
        (&broken_model, "forest tree 0"),
        (&partial_table, "grid missing cell"),
        (&foreign_table, "in a MPI_Allgather table"),
        (&missing, "read failed"),
    ] {
        let out = pml(&["verify", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{} unexpectedly verified",
            path.display()
        );
        assert!(
            stderr.contains("FAIL") && stderr.contains(needle),
            "{}: expected `{needle}` in: {stderr}",
            path.display()
        );
        // The failure is located at the offending path.
        assert!(stderr.contains(path.to_str().unwrap()), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Nesting past the reader's bound is a malformed artifact, reported like
/// any other, where it used to overflow the stack and abort the process.
#[test]
fn deeply_nested_artifact_fails_instead_of_aborting() {
    let dir = scratch("deep");
    let deep = dir.join("deep.json");
    let doc = format!(
        r#"{{"forest":{}{}}}"#,
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    std::fs::write(&deep, doc).unwrap();
    let out = pml(&["verify", deep.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let fail = format!("FAIL {}: ", deep.display());
    assert!(stderr.contains(&fail), "{stderr}");
    assert!(stderr.contains("nested too deep"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_healthy_and_broken_exits_nonzero_but_reports_both() {
    let dir = scratch("mixed");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"a\": 1}").unwrap();

    let out = pml(&[
        "verify",
        fixture_path().to_str().unwrap(),
        bad.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("OK (model)"), "{stdout}");
    assert!(stderr.contains("1 of 2 artifact(s) failed"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schedule_sweep_proves_the_grid_without_executing() {
    let out = pml(&[
        "verify",
        "--schedules",
        "--max-world",
        "5",
        "--blocks",
        "16",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
    // All four collectives appear in the per-algorithm tally.
    for name in ["ring", "bruck", "binomial", "ring_reduce_scatter"] {
        assert!(stdout.contains(name), "missing {name} in: {stdout}");
    }
}

#[test]
fn good_schedule_doc_verifies_and_corrupt_one_fails() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let good = root.join("tests/fixtures/schedules/allgather_p2_good.json");
    let corrupt = root.join("tests/fixtures/schedules/corrupt_drop_recv.json");

    let out = pml(&["verify", "--schedules", good.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("OK (MPI_Allgather p=2 size=8)"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = pml(&["verify", "--schedules", corrupt.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt fixture verified");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("never received"), "{stderr}");
}

#[test]
fn schedule_flags_without_schedules_mode_are_rejected() {
    let out = pml(&["verify", "--max-world", "4", "some.json"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("only apply with --schedules"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = pml(&["verify"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage: pml-mpi verify"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
