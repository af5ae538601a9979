//! Criterion: the `pml-serve/v1` protocol layer by itself — scanning a
//! `select` and a `predict` frame, rendering their replies — and one
//! pipelined 64-frame `select` burst against a daemon on a temp socket,
//! the round trip those pieces sit inside.

use criterion::{criterion_group, criterion_main, Criterion};
use pml_collectives::{Algorithm, AlltoallAlgo, Collective};
use pml_core::{FallbackDepth, Tuner, TuningTable};
use pml_serve::protocol::{parse_request, render_predict, render_select};
use pml_serve::{BatchConfig, LoadedArtifacts, ObsConfig, Server};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SELECT: &str = r#"{"v":"pml-serve/v1","id":1234,"op":"select","collective":"alltoall","nodes":16,"ppn":56,"msg_size":65536}"#;
const PREDICT: &str = r#"{"v":"pml-serve/v1","id":1234,"op":"predict","cluster":"Frontera","collective":"allgather","nodes":16,"ppn":56,"msg_size":4096}"#;
const BURST: usize = 64;

fn bench_protocol(c: &mut Criterion) {
    let algo = Algorithm::Alltoall(AlltoallAlgo::Pairwise);
    let mut g = c.benchmark_group("serve_protocol");
    g.bench_function("parse_request/select", |b| {
        b.iter(|| parse_request(black_box(SELECT)))
    });
    g.bench_function("parse_request/predict", |b| {
        b.iter(|| parse_request(black_box(PREDICT)))
    });
    g.bench_function("render_select", |b| {
        b.iter(|| render_select(black_box(Some(1234)), algo, FallbackDepth::NearestBucket))
    });
    g.bench_function("render_predict", |b| {
        b.iter(|| render_predict(black_box(Some(1234)), algo))
    });

    let dir = std::env::temp_dir().join(format!("pml-bench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("pml.sock");
    let mut table = TuningTable::new("bench", Collective::Alltoall);
    for (msg, pick) in [(1024, AlltoallAlgo::Bruck), (65536, AlltoallAlgo::Pairwise)] {
        table
            .insert(2, 8, msg, Algorithm::Alltoall(pick))
            .expect("grid cell");
    }
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
    .expect("bind");
    let term = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&term);
    let daemon = std::thread::spawn(move || server.run(&flag));
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let burst: String = (0..BURST)
        .map(|id| {
            let msg = if id % 2 == 0 { 1024 } else { 65536 };
            format!("{{\"v\":\"pml-serve/v1\",\"id\":{id},\"op\":\"select\",\"collective\":\"alltoall\",\"nodes\":2,\"ppn\":8,\"msg_size\":{msg}}}\n")
        })
        .collect();
    let mut chunk = [0u8; 16 << 10];
    g.bench_function("select_burst/64", |b| {
        b.iter(|| {
            stream.write_all(burst.as_bytes()).expect("write");
            let mut lines = 0;
            while lines < BURST {
                let n = stream.read(&mut chunk).expect("read");
                assert!(n > 0, "daemon closed the connection mid-burst");
                lines += chunk[..n].iter().filter(|&&c| c == b'\n').count();
            }
        })
    });
    g.finish();
    term.store(true, Ordering::SeqCst);
    drop(stream);
    daemon.join().expect("daemon thread").expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
