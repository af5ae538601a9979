//! The CLI holds a job shape to the daemon's check: a shape the protocol
//! answers with a `field` error makes `pml-mpi predict` and `compare` exit
//! 1 with the same message, before any model or dataset is read.

use pml_mpi::serve::{parse_request, ErrorKind};
use std::process::Command;

/// The message of the `field` error the daemon answers this shape with.
fn daemon_field_message(nodes: u64, ppn: u64) -> String {
    let frame = format!(
        r#"{{"v":"pml-serve/v1","id":1,"op":"select","collective":"allgather","nodes":{nodes},"ppn":{ppn},"msg_size":0}}"#
    );
    let (id, err) = parse_request(&frame).expect_err("the daemon rejects the shape");
    assert_eq!((id, err.kind), (Some(1), ErrorKind::Field), "{frame}");
    err.message
}

#[test]
fn predict_and_compare_reject_the_shapes_the_daemon_rejects() {
    let model = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/model_v1_allgather.json"
    );
    for (nodes, ppn) in [(0, 0), (4, 0), (65536, 65536), (2, 1 << 31)] {
        let shape = ["--nodes", &nodes.to_string(), "--ppn", &ppn.to_string()].map(String::from);
        let predict = [
            "predict",
            "allgather",
            "--cluster",
            "RI",
            "--model",
            model,
            "--msg",
            "0",
        ];
        let compare = ["compare", "RI", "allgather", "--no-cache"];
        for args in [&predict[..], &compare[..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_pml-mpi"))
                .args(args)
                .args(&shape)
                .output()
                .expect("spawning pml-mpi");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let want = format!("error: {}\n", daemon_field_message(nodes, ppn));
            assert_eq!((out.status.code(), &*stderr), (Some(1), &*want), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?}");
        }
    }
}
