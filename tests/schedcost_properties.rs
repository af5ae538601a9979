//! Property tests for schedcost: the extracted cost polynomial is a
//! graph invariant. Relabeling a schedule's ranks by a permutation that
//! preserves the layout's node structure is an isomorphism of the
//! Post/Complete dependency graph that keeps every message's net/shm
//! classification — so every coefficient of [`CostPoly`] must come out
//! identical. The permutations are seeded Fisher–Yates shuffles, so a
//! failure reproduces from the printed seed.

use pml_mpi::collectives::schedcost::{extract_poly, poly_for, CostPoly};
use pml_mpi::collectives::schedule::{CommSchedule, Op, Step};
use pml_mpi::collectives::{Algorithm, Collective};
use pml_mpi::simnet::JobLayout;

/// Deterministic pseudo-random stream (no external crates): a 64-bit
/// LCG with the high bits taken, good enough to seed shuffles.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn shuffle(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Lcg(seed.wrapping_add(0x9e3779b97f4a7c15));
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A permutation of the ranks of a `(nodes, ppn)` block layout that maps
/// nodes onto nodes: a shuffle of the node blocks composed with an
/// independent shuffle inside each block. `node_of(perm[r])` is then a
/// fixed permutation of `node_of(r)`, so every message keeps its net/shm
/// class and the per-NIC byte ledgers are permuted wholesale.
fn node_preserving_perm(nodes: u32, ppn: u32, seed: u64) -> Vec<u32> {
    let sigma = shuffle(nodes as usize, seed);
    let mut perm = vec![0u32; (nodes * ppn) as usize];
    for node in 0..nodes {
        let tau = shuffle(ppn as usize, seed ^ ((node as u64 + 1) * 0x517c_c1b7));
        for i in 0..ppn {
            perm[(node * ppn + i) as usize] = sigma[node as usize] * ppn + tau[i as usize];
        }
    }
    perm
}

/// Relabel every rank of `s` by `perm`: rank `r`'s program moves to slot
/// `perm[r]` and every `Send::to` / `Recv::from` peer is rewritten. The
/// result is the same communication pattern under new rank names.
fn relabel(s: &CommSchedule, perm: &[u32]) -> CommSchedule {
    let mut out = s.clone();
    for (r, prog) in s.ranks.iter().enumerate() {
        out.ranks[perm[r] as usize] = prog
            .iter()
            .map(|step| Step {
                ops: step
                    .ops
                    .iter()
                    .map(|op| match *op {
                        Op::Send { to, tag, region } => Op::Send {
                            to: perm[to as usize],
                            tag,
                            region,
                        },
                        Op::Recv { from, tag, region } => Op::Recv {
                            from: perm[from as usize],
                            tag,
                            region,
                        },
                        ref local => local.clone(),
                    })
                    .collect(),
            })
            .collect();
    }
    out
}

const COLLECTIVES: [Collective; 4] = [
    Collective::Allgather,
    Collective::Allreduce,
    Collective::Alltoall,
    Collective::Bcast,
];

/// Every registered algorithm's schedule at world `p`, block/message 16.
fn all_schedules(p: u32) -> Vec<(Algorithm, CommSchedule)> {
    COLLECTIVES
        .iter()
        .flat_map(|&c| Algorithm::applicable_for(c, p))
        .map(|a| (a, a.schedule(p, 16).expect("registry schedule")))
        .collect()
}

fn poly(s: &CommSchedule, layout: JobLayout) -> CostPoly {
    extract_poly(s, layout).expect("schedule extracts")
}

/// Check the invariant for one (schedule, layout, permutation) triple.
fn assert_invariant(algo: Algorithm, s: &CommSchedule, layout: JobLayout, perm: &[u32], seed: u64) {
    let base = poly(s, layout);
    let renamed = poly(&relabel(s, perm), layout);
    assert_eq!(
        base, renamed,
        "{algo:?} on {layout:?}: polynomial changed under relabeling (seed {seed}, perm {perm:?})"
    );
}

#[test]
fn invariant_under_any_permutation_on_one_node() {
    // Single node: every message is shm no matter the names, so *any*
    // permutation is node-preserving.
    let p = 6u32;
    let layout = JobLayout::new(1, p);
    for (algo, s) in all_schedules(p) {
        for seed in 0..5u64 {
            let perm = shuffle(p as usize, seed);
            assert_invariant(algo, &s, layout, &perm, seed);
        }
    }
}

#[test]
fn invariant_under_any_permutation_one_rank_per_node() {
    // One rank per node: every message is net, and ranks and nodes are
    // the same objects — permuting ranks permutes whole NIC ledgers.
    let p = 6u32;
    let layout = JobLayout::new(p, 1);
    for (algo, s) in all_schedules(p) {
        for seed in 0..5u64 {
            let perm = shuffle(p as usize, seed);
            assert_invariant(algo, &s, layout, &perm, seed);
        }
    }
}

#[test]
fn invariant_under_node_preserving_permutations_on_mixed_layout() {
    // The general case: a (4, 2) layout where a careless permutation
    // *would* flip messages between net and shm. Node-preserving
    // permutations may still swap node blocks and reorder ranks inside
    // each node, and the polynomial must not move.
    let p = 8u32;
    let (nodes, ppn) = (4u32, 2u32);
    let layout = JobLayout::new(nodes, ppn);
    for (algo, s) in all_schedules(p) {
        for seed in 0..8u64 {
            let perm = node_preserving_perm(nodes, ppn, seed);
            assert_invariant(algo, &s, layout, &perm, seed);
        }
    }
}

#[test]
fn arbitrary_relabeling_never_breaks_extraction() {
    // A permutation that ignores node boundaries is a *different* job
    // placement, so the coefficients may legitimately move — but the
    // relabeled schedule is still structurally valid and extraction must
    // keep succeeding (a name change can never surface as an error).
    let p = 8u32;
    let layout = JobLayout::new(4, 2);
    for (algo, s) in all_schedules(p) {
        for seed in 0..5u64 {
            let renamed = relabel(&s, &shuffle(p as usize, seed));
            extract_poly(&renamed, layout)
                .unwrap_or_else(|e| panic!("{algo:?} relabeled (seed {seed}) failed: {e}"));
        }
    }
}

#[test]
fn relabeling_composes() {
    // Applying a permutation then its inverse round-trips the schedule
    // exactly — a self-check on the relabeling helper, so the invariance
    // tests above are testing the analyzer and not a broken harness.
    let p = 6u32;
    for (algo, s) in all_schedules(p) {
        let perm = shuffle(p as usize, 42);
        let mut inv = vec![0u32; perm.len()];
        for (i, &to) in perm.iter().enumerate() {
            inv[to as usize] = i as u32;
        }
        assert_eq!(s, relabel(&relabel(&s, &perm), &inv), "{algo:?}");
    }
}

/// The paper's nine algorithms, whose polynomials `poly_for` prices by
/// formula on a cache miss.
fn paper_algorithms() -> impl Iterator<Item = Algorithm> {
    Collective::PAPER
        .into_iter()
        .flat_map(|c| Algorithm::all_for(c).iter().copied())
}

/// Every paper algorithm defined at the layout: `poly_for`'s answer (its
/// formula, as each layout is new to this process) equals the extracted
/// unit-block polynomial coefficient by coefficient.
fn assert_formulas_extract(layout: JobLayout) {
    let p = layout.world_size();
    for algo in paper_algorithms().filter(|a| a.supports(p)) {
        let extracted = poly(&algo.schedule(p, 1).expect("registry schedule"), layout);
        let priced = poly_for(algo, layout, 4096).expect("a polynomial within the bound");
        assert_eq!(priced, extracted, "{algo} on {layout:?}");
    }
}

#[test]
fn formulas_equal_extraction_up_to_128_ranks() {
    for world in 1..=128u32 {
        for ppn in (1..=world).filter(|ppn| world % ppn == 0) {
            assert_formulas_extract(JobLayout::new(world / ppn, ppn));
        }
    }
}

#[test]
fn formulas_equal_extraction_on_deploy_layouts() {
    // The layouts a never-seen cluster's bootstrap draws (the benchmark's
    // `deploy_cold`): 244–256 ranks at up to 16 per node.
    for world in 244..=256u32 {
        for ppn in (1..=16).filter(|ppn| world % ppn == 0) {
            assert_formulas_extract(JobLayout::new(world / ppn, ppn));
        }
    }
}

/// The parts of `big_layout_polys.json` (`pml-costgolden/v1`) read here.
#[derive(serde::Deserialize)]
struct Golden {
    layouts: Vec<GoldenLayout>,
}

#[derive(serde::Deserialize)]
struct GoldenLayout {
    nodes: u32,
    ppn: u32,
    polys: Vec<GoldenPoly>,
}

#[derive(serde::Deserialize)]
struct GoldenPoly {
    algo: String,
    poly: CostPoly,
}

#[test]
fn formulas_equal_the_committed_big_layout_polynomials() {
    let text = std::fs::read_to_string("tests/fixtures/costs/big_layout_polys.json")
        .expect("committed golden fixture");
    let golden: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(golden.layouts.len(), 9);
    for entry in &golden.layouts {
        let layout = JobLayout::new(entry.nodes, entry.ppn);
        assert_formulas_extract(layout);
        let priced: Vec<Algorithm> = paper_algorithms()
            .filter(|a| a.supports(layout.world_size()))
            .collect();
        assert_eq!(entry.polys.len(), priced.len(), "{layout:?}");
        for (algo, want) in priced.into_iter().zip(&entry.polys) {
            assert_eq!(want.algo, algo.name(), "{layout:?}");
            assert_eq!(
                poly_for(algo, layout, 1),
                Some(want.poly),
                "{algo} on {layout:?}"
            );
        }
    }
}

/// Every distinct `(nodes, ppn)` of the zoo's grids (127 layouts, up to
/// 16 × 68 = 1 088 ranks) and 200 seeded layouts up to 1 088 ranks.
/// Extraction at that size takes seconds a layout, so `cargo xtask
/// verify-costs` runs this in release; `cargo test` runs the bounded
/// tests above.
#[test]
#[ignore = "minutes of extraction; run by `cargo xtask verify-costs`"]
fn formulas_equal_extraction_on_zoo_and_sampled_layouts() {
    let mut layouts: Vec<(u32, u32)> = pml_mpi::zoo()
        .iter()
        .flat_map(|c| {
            let ppns = c.ppn_grid.clone();
            c.node_grid
                .iter()
                .flat_map(move |&n| ppns.clone().into_iter().map(move |p| (n, p)))
        })
        .collect();
    layouts.sort_unstable();
    layouts.dedup();
    assert_eq!(layouts.len(), 127, "the zoo's layouts");
    let mut rng = Lcg(0x5eed_f0a1);
    let mut sampled = 0;
    while sampled < 200 {
        let nodes = 1 + (rng.next() % 64) as u32;
        let ppn = 1 + (rng.next() % 72) as u32;
        if nodes * ppn <= 1088 {
            layouts.push((nodes, ppn));
            sampled += 1;
        }
    }
    for (nodes, ppn) in layouts {
        assert_formulas_extract(JobLayout::new(nodes, ppn));
    }
}
