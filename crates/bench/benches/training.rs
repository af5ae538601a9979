//! Criterion: forest training at dataset-zoo scale (histogram-binned
//! split finding), plus the batched probability kernel the tuning-table
//! path runs on — the perf trajectory `scripts/bench.sh` records in
//! `BENCH_train_infer.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use pml_collectives::Collective;
use pml_core::features::records_to_dataset;
use pml_mlcore::{Classifier, ForestParams, Matrix, RandomForest};
use std::hint::black_box;

const TREES: usize = 40;

fn fit(x: &Matrix, y: &[usize], k: usize) -> RandomForest {
    let mut f = RandomForest::new(ForestParams {
        n_estimators: TREES,
        seed: 42,
        ..Default::default()
    });
    f.fit(x, y, k).expect("forest fit");
    f
}

fn bench_training(c: &mut Criterion) {
    // The full cached Allgather dataset (the "dataset zoo" scale the
    // engine trains at): ~10k rows x 14 features.
    let records = pml_bench::full_dataset(Collective::Allgather).expect("cached dataset");
    let data = records_to_dataset(&records, Collective::Allgather).expect("dataset");
    let (x, y, k) = (&data.x, &data.y, data.n_classes);

    let mut g = c.benchmark_group("forest_fit");
    g.bench_function(format!("binned_{TREES}_trees"), |b| {
        b.iter(|| black_box(fit(x, y, k)))
    });
    g.finish();

    // Batched inference over the whole dataset with a caller-provided
    // output buffer — the allocation-free hot loop — then hard
    // predictions straight off the compiled twin, then the exact f64
    // oracle the kernel is tested against.
    let forest = fit(x, y, k);
    let compiled = forest.compiled().expect("fitted forest compiles");
    let mut out = Matrix::zeros(x.rows(), k);
    let mut g = c.benchmark_group("forest_predict");
    g.bench_function(format!("proba_batch_into_{}_rows", x.rows()), |b| {
        b.iter(|| {
            forest.predict_proba_batch_into(black_box(x), &mut out);
            black_box(&out);
        })
    });
    g.bench_function(format!("compiled_predict_batch_{}_rows", x.rows()), |b| {
        b.iter(|| black_box(compiled.predict_batch(black_box(x))))
    });
    g.bench_function(format!("exact_proba_batch_into_{}_rows", x.rows()), |b| {
        b.iter(|| {
            forest.predict_proba_batch_into_exact(black_box(x), &mut out);
            black_box(&out);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
