//! Golden polynomials: the exact `CostPoly` of every allgather/alltoall
//! algorithm on deployment-sized layouts (244–256 ranks, PPN ≤ 16), plus
//! one digest over the polynomials of the whole default schedcheck grid;
//! and the pinned analytic rankings those polynomials price on one cluster.
//! The fixture was generated on the commit *before* the schedule matcher
//! and the longest-path walk were rebuilt (ISSUE 13), so any drift in a
//! single coefficient — on the layouts a cold cluster bootstrap actually
//! extracts — fails here field by field.
//!
//! Regenerate (only when the cost *model* changes on purpose):
//! `cargo test --test schedcost_golden -- --ignored regenerate_fixture`.

use pml_mpi::collectives::schedcheck::sweep_grid;
use pml_mpi::collectives::schedcost::{cell_layout, extract_poly, rank_static, CostPoly};
use pml_mpi::collectives::{Algorithm, Collective};
use pml_mpi::simnet::JobLayout;
use serde::{Deserialize, Serialize};

const FIXTURE: &str = "tests/fixtures/costs/big_layout_polys.json";
const FIXTURE_VERSION: &str = "pml-costgolden/v1";
const RANKINGS: &str = "tests/fixtures/costs/ri_ranking.json";

/// `(nodes, ppn)`: the benchmark's profile points (25×10, 31×8, 16×16),
/// a 7-wide one, prime node counts at PPN 1–4 and two even fillers.
const LAYOUTS: [(u32, u32); 9] = [
    (25, 10),
    (31, 8),
    (16, 16),
    (36, 7),
    (61, 4),
    (83, 3),
    (127, 2),
    (41, 6),
    (251, 1),
];

const GRID_MAX_WORLD: u32 = 16;
const GRID_SIZES: [usize; 2] = [16, 21];

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenPoly {
    collective: String,
    algo: String,
    poly: CostPoly,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenLayout {
    nodes: u32,
    ppn: u32,
    polys: Vec<GoldenPoly>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenGrid {
    max_world: u32,
    sizes: Vec<usize>,
    cells: usize,
    /// FNV-1a 64 over every cell's nine coefficients, little-endian, in
    /// `sweep_grid` order and `CostPoly` field order.
    fnv64: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    v: String,
    layouts: Vec<GoldenLayout>,
    grid: GoldenGrid,
}

/// `CostPoly`'s fields, in the order [`coefficients`] lists them.
const FIELDS: [&str; 9] = [
    "net_rounds",
    "shm_rounds",
    "net_bytes",
    "shm_bytes",
    "reduce_bytes",
    "copy_bytes",
    "nic_bytes",
    "net_msgs",
    "shm_msgs",
];

fn coefficients(p: &CostPoly) -> [u64; 9] {
    [
        p.net_rounds,
        p.shm_rounds,
        p.net_bytes,
        p.shm_bytes,
        p.reduce_bytes,
        p.copy_bytes,
        p.nic_bytes,
        p.net_msgs,
        p.shm_msgs,
    ]
}

fn unit_poly(algo: Algorithm, layout: JobLayout) -> CostPoly {
    let schedule = algo.schedule(layout.world_size(), 1).unwrap();
    extract_poly(&schedule, layout).unwrap()
}

fn compute() -> Golden {
    let layouts = LAYOUTS
        .iter()
        .map(|&(nodes, ppn)| {
            let layout = JobLayout::new(nodes, ppn);
            let polys = Collective::PAPER
                .iter()
                .flat_map(|&c| Algorithm::applicable_for(c, layout.world_size()))
                .map(|algo| GoldenPoly {
                    collective: algo.collective().name().to_string(),
                    algo: algo.name().to_string(),
                    poly: unit_poly(algo, layout),
                })
                .collect();
            GoldenLayout { nodes, ppn, polys }
        })
        .collect();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let cells = sweep_grid(GRID_MAX_WORLD, &GRID_SIZES);
    for &(algo, p, size) in &cells {
        let schedule = algo.schedule(p, size).unwrap();
        let poly = extract_poly(&schedule, cell_layout(p)).unwrap();
        for byte in coefficients(&poly).iter().flat_map(|c| c.to_le_bytes()) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Golden {
        v: FIXTURE_VERSION.to_string(),
        layouts,
        grid: GoldenGrid {
            max_world: GRID_MAX_WORLD,
            sizes: GRID_SIZES.to_vec(),
            cells: cells.len(),
            fnv64: format!("{hash:016x}"),
        },
    }
}

#[test]
fn big_layout_polynomials_match_the_committed_fixture() {
    let text = std::fs::read_to_string(FIXTURE).expect("committed golden fixture");
    let want: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(want.v, FIXTURE_VERSION);
    assert!(want.layouts.len() >= 8, "fixture covers at least 8 layouts");
    let got = compute();
    assert_eq!(got.layouts.len(), want.layouts.len());
    for (g, w) in got.layouts.iter().zip(&want.layouts) {
        assert_eq!((g.nodes, g.ppn), (w.nodes, w.ppn));
        let world = g.nodes * g.ppn;
        assert!((244..=256).contains(&world) && g.ppn <= 16, "{g:?}");
        assert_eq!(g.polys.len(), w.polys.len(), "{}x{}", g.nodes, g.ppn);
        for (gp, wp) in g.polys.iter().zip(&w.polys) {
            let cell = format!("{}/{} on {}x{}", gp.collective, gp.algo, g.nodes, g.ppn);
            assert_eq!((&gp.collective, &gp.algo), (&wp.collective, &wp.algo));
            let (have, expect) = (coefficients(&gp.poly), coefficients(&wp.poly));
            for ((field, have), expect) in FIELDS.iter().zip(have).zip(expect) {
                assert_eq!(have, expect, "{cell}: {field}");
            }
        }
    }
    assert_eq!(got.grid, want.grid, "grid digest over all polynomials");
    assert_eq!(want.grid.cells, 370, "the default schedcheck grid");
}

/// `pml-costs/v1`: known-good analytic rankings of grid cells on one zoo
/// cluster's hardware.
#[derive(Deserialize)]
struct Rankings {
    v: String,
    cluster: String,
    cells: Vec<RankedCell>,
}

#[derive(Deserialize)]
struct RankedCell {
    collective: String,
    world: u32,
    size: usize,
    ranking: Vec<String>,
}

/// Every committed ranking reproduces exactly, so cost-model drift that
/// still clears the differential's top-1 bar fails here, named by cell.
#[test]
fn pinned_rankings_reproduce_exactly() {
    let text = std::fs::read_to_string(RANKINGS).expect("committed ranking fixture");
    let want: Rankings = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(want.v, "pml-costs/v1");
    assert!(!want.cells.is_empty(), "fixture pins no cell");
    let node = &pml_mpi::by_name(&want.cluster)
        .expect("zoo cluster")
        .spec
        .node;
    for cell in &want.cells {
        let coll = pml_mpi::serve::parse_collective(&cell.collective).expect("collective");
        let ranked = rank_static(coll, node, cell_layout(cell.world), cell.size);
        let got: Vec<&str> = ranked.iter().map(|(algo, _)| algo.name()).collect();
        let (c, p, size) = (&cell.collective, cell.world, cell.size);
        assert_eq!(
            got, cell.ranking,
            "analytic ranking drifted for {c} p={p} size={size}"
        );
    }
}

#[test]
#[ignore = "writes the fixture; run on purpose, on a commit whose polynomials are trusted"]
fn regenerate_fixture() {
    let json = serde_json::to_string_pretty(&compute()).unwrap();
    std::fs::write(FIXTURE, json + "\n").unwrap();
}
