//! Criterion: batched vs per-row inference — the speedup that makes
//! tuning-table generation (hundreds of grid cells per cluster) cheap.
//! `predict_batch` extracts features for all jobs at once and runs the
//! forest over rows in parallel; the per-row loop pays feature extraction
//! and forest dispatch once per job.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pml_clusters::{by_name, generate_cluster, DatagenConfig};
use pml_collectives::Collective;
use pml_core::{JobConfig, PretrainedModel, TrainConfig};
use pml_mlcore::ForestParams;
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let mut e = by_name("RI2").expect("zoo cluster").clone();
    e.node_grid = vec![1, 2, 4];
    e.ppn_grid = vec![2, 8];
    e.msg_grid = vec![16, 1024, 65536];
    let records =
        generate_cluster(&e, Collective::Allgather, &DatagenConfig::noiseless()).expect("datagen");
    let cfg = TrainConfig {
        forest: ForestParams {
            n_estimators: 100,
            seed: 0,
            ..Default::default()
        },
        top_k_features: Some(5),
    };
    let model = PretrainedModel::train(&records, Collective::Allgather, &cfg).expect("train");
    let frontera = by_name("Frontera").expect("zoo cluster");

    let mut g = c.benchmark_group("inference");
    for n_jobs in [1usize, 64, 630] {
        // 630 = the Frontera-sized tuning-table grid.
        let jobs: Vec<JobConfig> = (0..n_jobs)
            .map(|i| JobConfig::new(1 + (i % 16) as u32, 1 + (i % 56) as u32, 1 << (i % 21)))
            .collect();
        g.bench_with_input(BenchmarkId::new("per_row", n_jobs), &jobs, |b, jobs| {
            b.iter(|| {
                for &job in jobs {
                    black_box(model.predict(&frontera.spec.node, job));
                }
            })
        });
        g.bench_with_input(BenchmarkId::new("batched", n_jobs), &jobs, |b, jobs| {
            b.iter(|| black_box(model.predict_batch(&frontera.spec.node, jobs)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
