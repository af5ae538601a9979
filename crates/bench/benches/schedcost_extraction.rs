//! Criterion: the cold half of `schedcost` — what one never-seen layout
//! costs before its polynomials are cached. Two groups, per
//! allgather/alltoall algorithm, at a small world (64 = 8×8) and at the
//! deployment-sized one a cluster bootstrap pays for (250 = 25×10):
//!
//! - `schedcost_generate/<collective>_<algo>/<world>` — `Algorithm::schedule`
//!   at unit block (the builder's tag assignment and step allocation);
//! - `schedcost_extract/<collective>_<algo>/<world>` — `extract_poly` on
//!   the prebuilt schedule (structural checks, FIFO matching and the
//!   fused longest-path sweep; nothing is cached at this level).
//!
//! `scripts/bench.sh --schedcost [BASE_REV]` prints these as a table,
//! next to the same benches built from another revision when one is
//! named — the before/after table of a PR that touches this layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pml_collectives::schedcost::extract_poly;
use pml_collectives::{Algorithm, Collective};
use pml_simnet::JobLayout;
use std::hint::black_box;

const LAYOUTS: [JobLayout; 2] = [
    JobLayout { nodes: 8, ppn: 8 },
    JobLayout { nodes: 25, ppn: 10 },
];

fn paper_algorithms(world: u32) -> impl Iterator<Item = (String, Algorithm)> {
    Collective::PAPER
        .into_iter()
        .flat_map(move |c| Algorithm::applicable_for(c, world))
        .map(|a| {
            let collective = format!("{:?}", a.collective()).to_lowercase();
            (format!("{collective}_{}", a.name()), a)
        })
}

fn bench_generate(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedcost_generate");
    for layout in LAYOUTS {
        let world = layout.world_size();
        for (name, algo) in paper_algorithms(world) {
            g.bench_with_input(BenchmarkId::new(name, world), &world, |b, &p| {
                b.iter(|| black_box(algo.schedule(p, 1).unwrap()))
            });
        }
    }
    g.finish();
}

fn bench_extract(c: &mut Criterion) {
    let mut g = c.benchmark_group("schedcost_extract");
    for layout in LAYOUTS {
        let world = layout.world_size();
        for (name, algo) in paper_algorithms(world) {
            let schedule = algo.schedule(world, 1).unwrap();
            g.bench_with_input(BenchmarkId::new(name, world), &schedule, |b, s| {
                b.iter(|| black_box(extract_poly(s, layout).unwrap()))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_generate, bench_extract);
criterion_main!(benches);
