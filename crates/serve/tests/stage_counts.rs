//! Stage attribution under coalesced writes: however many replies one
//! `write` carries, every request is observed exactly once per stage.
//!
//! The stage histograms are process-wide statics, so this is the only test
//! in its binary: nothing else may feed them while the counts are compared.

use pml_collectives::{Algorithm, AlltoallAlgo, Collective};
use pml_core::{Tuner, TuningTable};
use pml_serve::reqtrace::stage_histogram;
use pml_serve::{BatchConfig, Client, LoadedArtifacts, ObsConfig, Server};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const STAGES: [&str; 5] = ["parse", "select", "serialize", "reply", "total"];

fn counts() -> [u64; 5] {
    STAGES.map(|stage| stage_histogram(stage).map_or(0, |h| h.snap().count))
}

#[test]
fn every_pipelined_request_is_observed_once_per_stage() {
    let dir = std::env::temp_dir().join(format!("pml-serve-stages-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("pml.sock");
    let mut table = TuningTable::new("X", Collective::Alltoall);
    table
        .insert(2, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Bruck))
        .unwrap();
    let artifacts = LoadedArtifacts {
        tuner: Tuner::new([table]),
        models: BTreeMap::new(),
        warnings: Vec::new(),
    };
    let server = Server::with_artifacts(
        &socket,
        artifacts,
        BatchConfig::default(),
        ObsConfig::default(),
    )
    .unwrap();
    let term = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&term);
    let daemon = std::thread::spawn(move || server.run(&flag));

    let mut client = Client::connect(&socket).unwrap();
    const N: u64 = 200;
    let burst: String = (0..N)
        .map(|id| {
            format!(
                "{{\"v\":\"pml-serve/v1\",\"id\":{id},\"op\":\"select\",\"collective\":\"alltoall\",\"nodes\":2,\"ppn\":8,\"msg_size\":64}}\n"
            )
        })
        .collect();
    let before = counts();
    client.stream().write_all(burst.as_bytes()).unwrap();
    let mut line = String::new();
    for id in 0..N {
        client.recv(&mut line).unwrap();
        assert!(line.contains(&format!("\"id\":{id},\"ok\":true")), "{line}");
    }
    // The daemon settles a write's requests right after it, on its own
    // thread; once that thread is joined the counts are final.
    drop(client);
    term.store(true, Ordering::SeqCst);
    daemon.join().unwrap().unwrap();
    let gained: Vec<u64> = counts().iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(gained, [N; 5], "stages {STAGES:?}");
    std::fs::remove_dir_all(&dir).ok();
}
