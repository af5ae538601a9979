//! Property sweep: the compiled (quantized, breadth-first, branch-free)
//! forest must be *bitwise* interchangeable with the exact f64 traversal —
//! same probabilities, same argmax — across seeds, depths on both sides of
//! the unrolled-loop boundary, rows landing exactly on bin edges, and
//! non-finite / out-of-range features. The serve path and tuning-table
//! generation lean on this equivalence; `tests/determinism.rs` pins the
//! byte-level consequences downstream.

use pml_mpi::mlcore::{Classifier, ForestParams, Matrix, RandomForest, MAX_UNROLLED_DEPTH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_FEATURES: usize = 4;
const N_CLASSES: usize = 3;

fn synthetic(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        let row: Vec<f64> = (0..N_FEATURES).map(|_| rng.gen_range(0.0..4.0)).collect();
        let label = usize::from(row[0] > row[1]) + usize::from(row[2] + row[3] > 4.0);
        y.push(label.min(N_CLASSES - 1));
        rows.push(row);
    }
    (Matrix::from_rows(rows), y)
}

fn fitted(seed: u64, max_depth: Option<usize>) -> (RandomForest, Matrix) {
    let (x, y) = synthetic(240, seed);
    let mut f = RandomForest::new(ForestParams {
        n_estimators: 12,
        seed,
        max_depth,
        ..Default::default()
    });
    f.fit(&x, &y, N_CLASSES).unwrap();
    (f, x)
}

/// Probabilities (bit for bit) and argmax of the compiled path equal the
/// exact f64 walk's on `queries`.
fn assert_bitwise_equal(f: &RandomForest, queries: &Matrix, ctx: &str) {
    assert_eq!(
        f.predict_batch_exact(queries),
        f.predict_batch(queries),
        "{ctx}"
    );
    let mut exact = Matrix::zeros(queries.rows(), f.n_classes());
    f.predict_proba_batch_into_exact(queries, &mut exact);
    let mut routed = Matrix::zeros(queries.rows(), f.n_classes());
    f.predict_proba_batch_into(queries, &mut routed);
    for (a, b) in exact.as_slice().iter().zip(routed.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}");
    }
}

/// Probabilities and argmax agree bit-for-bit on fresh query rows, over 18
/// seeds crossed with depths below, at, and above the unrolled boundary.
#[test]
fn compiled_matches_exact_across_seeds_and_depths() {
    for seed in 0..18u64 {
        let depth = match seed % 3 {
            0 => Some(MAX_UNROLLED_DEPTH - 1),
            1 => Some(MAX_UNROLLED_DEPTH),
            _ => Some(MAX_UNROLLED_DEPTH + 1),
        };
        let (f, _) = fitted(seed, depth);
        assert!(f.compile().is_ok(), "seed {seed}");
        let (queries, _) = synthetic(173, seed ^ 0xbeef);
        assert_bitwise_equal(&f, &queries, &format!("seed {seed} depth {depth:?}"));
    }
}

/// Rows placed *exactly* on split thresholds — the `>` vs `>=` knife edge
/// where a binning off-by-one would flip the routing — still agree.
#[test]
fn rows_on_exact_split_thresholds_match() {
    for seed in 18..24u64 {
        let (f, _) = fitted(seed, None);
        let compiled = f.compiled().expect("compiles");
        // Re-query every learned threshold in every feature slot.
        let mut rows = Vec::new();
        for edges in compiled.edges() {
            for &t in edges {
                rows.push(vec![t; N_FEATURES]);
                rows.push(vec![t + f64::EPSILON * t.abs().max(1.0); N_FEATURES]);
            }
        }
        if rows.is_empty() {
            continue;
        }
        let queries = Matrix::from_rows(rows);
        assert_bitwise_equal(&f, &queries, &format!("seed {seed}"));
    }
}

/// NaN and out-of-range features: `NaN > t` is false on the exact path, so
/// NaN must route left everywhere; ±∞ and far-out-of-range values clamp to
/// the extreme bins without disagreeing with the exact comparisons.
#[test]
fn non_finite_and_out_of_range_features_match() {
    for seed in 24..30u64 {
        let (f, _) = fitted(seed, None);
        let mut rows = vec![
            vec![f64::NAN; N_FEATURES],
            vec![f64::INFINITY; N_FEATURES],
            vec![f64::NEG_INFINITY; N_FEATURES],
            vec![1e300; N_FEATURES],
            vec![-1e300; N_FEATURES],
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let mut row: Vec<f64> = (0..N_FEATURES)
                .map(|_| rng.gen_range(-10.0..14.0))
                .collect();
            if rng.gen_range(0..3) == 0 {
                row[rng.gen_range(0..N_FEATURES)] = f64::NAN;
            }
            rows.push(row);
        }
        let queries = Matrix::from_rows(rows);
        assert_bitwise_equal(&f, &queries, &format!("seed {seed}"));
    }
}

/// A model trained on a 3·2·3 grid (the shape of a small tuning table:
/// 18 distinct rows, at most two thresholds a feature) goes through the
/// same traversal as any other — on the grid, between and beyond its
/// values, on its thresholds and on NaN.
#[test]
fn small_grid_models_match() {
    let grid: [&[f64]; 3] = [&[1.0, 2.0, 4.0], &[8.0, 16.0], &[64.0, 1024.0, 65536.0]];
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for (i, &a) in grid[0].iter().enumerate() {
        for &b in grid[1] {
            for (k, &c) in grid[2].iter().enumerate() {
                for _ in 0..4 {
                    rows.push(vec![a, b, c]);
                    y.push((i + k + usize::from(b > 8.0)) % N_CLASSES);
                }
            }
        }
    }
    let mut f = RandomForest::new(ForestParams {
        n_estimators: 12,
        seed: 9,
        ..Default::default()
    });
    f.fit(&Matrix::from_rows(rows.clone()), &y, N_CLASSES)
        .unwrap();
    let edges = f.compiled().expect("compiles").edges().to_vec();
    assert!(edges.iter().zip(grid).all(|(e, g)| e.len() < g.len()));

    let mut rng = StdRng::seed_from_u64(9);
    rows.push(vec![f64::NAN, 12.0, 0.5]);
    rows.push(vec![1e300, -1e300, f64::NAN]);
    rows.push(
        edges
            .iter()
            .map(|e| e.first().copied().unwrap_or(0.0))
            .collect(),
    );
    for _ in 0..200 {
        rows.push(vec![
            rng.gen_range(-1.0..6.0),
            rng.gen_range(0.0..32.0),
            rng.gen_range(0.0..100000.0),
        ]);
    }
    assert_bitwise_equal(&f, &Matrix::from_rows(rows), "3x2x3 grid");
}
