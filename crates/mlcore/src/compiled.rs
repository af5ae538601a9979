//! Compiled quantized forest inference — the branchless batch hot path.
//!
//! [`CompiledForest`] re-lays a fitted [`RandomForest`] for block
//! prediction: every split threshold is quantized to an index into a
//! per-feature sorted edge list (at most [`MAX_EDGES`] distinct thresholds
//! per feature, so codes fit u8 — the same budget [`crate::BinnedMatrix`]
//! uses), trees are renumbered breadth-first into one flat struct-of-arrays
//! store, and leaves become self-loops so a whole [`BLOCK`]-row window
//! advances level-by-level with branch-free
//! `next = children[2*node + (code > tcode) as usize]` steps. Each query
//! row is binned once per block; all trees then compare u8 codes instead of
//! re-reading f64 features. Trees no deeper than [`MAX_UNROLLED_DEPTH`]
//! share one fixed-trip loop the compiler fully unrolls; the self-loops
//! absorb the spare iterations past a shallow leaf.
//!
//! The quantization is *exactly* equivalent to the f64 comparison, not
//! approximately. With `edges[f]` the sorted distinct thresholds of
//! feature `f` and `code(v) = |{e ∈ edges[f] : v > e}|`, the split test
//! `v > t` holds iff `code(v) > index_of(t)`: if `v > t` then `v` exceeds
//! every edge up to and including `t`, so `code(v) ≥ index_of(t) + 1`;
//! otherwise `v` exceeds no edge at or past `t`, so `code(v) ≤ index_of(t)`.
//! NaN features code to 0 and descend left, exactly like `NaN > t == false`
//! on the exact path. Leaf payloads are copied verbatim and accumulated in
//! the same tree order with the same final division, so batch probabilities
//! are *bitwise* identical to the exact kernel — the property tests here
//! and in `tests/compiled_equivalence.rs` pin that over many seeds.
//!
//! This is the only batch inference path: `RandomForest::fit` and
//! `RandomForest::verify` both end by compiling, so a forest that cannot
//! be quantized ([`CompileError`]) is a typed error where it is made or
//! loaded. The exact f64 walk survives only as the oracle the equivalence
//! tests compare against.

use crate::forest::{RandomForest, BLOCK};
use crate::matrix::Matrix;
use crate::tree::{argmax, LEAF};
use rayon::prelude::*;
use std::fmt;

/// Maximum distinct split thresholds per feature: codes 0..=255 must fit
/// u8, and a row's code can be one past the last edge.
pub const MAX_EDGES: usize = 255;

/// Trees at most this deep run the fixed-trip unrolled traversal loop;
/// deeper trees fall back to a dynamic trip count.
pub const MAX_UNROLLED_DEPTH: usize = 8;

/// Why a [`RandomForest`] could not be compiled — and therefore cannot
/// serve batch predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The forest has no fitted trees (or zero features/classes).
    Unfit,
    /// A feature has more distinct split thresholds than u8 codes can
    /// name.
    TooManyThresholds { feature: usize, distinct: usize },
    /// A split threshold is NaN or infinite and cannot be quantized.
    NonFiniteThreshold { tree: usize, node: usize },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unfit => write!(f, "forest has no fitted trees to compile"),
            CompileError::TooManyThresholds { feature, distinct } => write!(
                f,
                "feature {feature} has {distinct} distinct thresholds, \
                 more than the {MAX_EDGES}-edge u8 code budget"
            ),
            CompileError::NonFiniteThreshold { tree, node } => {
                write!(f, "tree {tree} node {node} has a non-finite threshold")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A [`RandomForest`] recompiled for branchless quantized batch inference.
///
/// All trees live in one flat breadth-first store: node `i` is a split
/// when `children[2i] != i`, testing `code(row[feat[i]]) > tcode[i]` and
/// stepping to `children[2i + go_right]`; a leaf (`children[2i] == i`,
/// both slots) self-loops forever and holds the offset of its
/// `n_classes`-wide payload in `leaf_off[i]`. Unused slots (`feat`/`tcode`
/// on leaves, `leaf_off` on splits) are zero, and `tree_depths[t]` is the
/// exact number of steps that parks every row of tree `t` on a leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledForest {
    n_classes: usize,
    n_features: usize,
    /// Per-feature sorted distinct split thresholds (≤ [`MAX_EDGES`] each).
    edges: Vec<Vec<f64>>,
    /// Split feature per node (0 on leaves).
    feat: Vec<u16>,
    /// Quantized threshold per node: the index of the split's threshold in
    /// `edges[feat]` (0 on leaves).
    tcode: Vec<u8>,
    /// Two absolute child indices per node; leaves self-loop.
    children: Vec<u32>,
    /// Leaf payload offset into `leaf_values` (0 on splits).
    leaf_off: Vec<u32>,
    /// Contiguous leaf payloads in node (breadth-first emission) order.
    leaf_values: Vec<f64>,
    /// First node of each tree; `tree_roots[0] == 0`, strictly increasing.
    tree_roots: Vec<u32>,
    /// Traversal trip count per tree (deepest leaf's level).
    tree_depths: Vec<u32>,
}

impl CompiledForest {
    /// Quantize and re-lay `forest`. Fails when a feature's
    /// distinct-threshold count exceeds the u8 budget, a threshold is
    /// non-finite, or the forest is unfit. Assumes a structurally valid
    /// forest, like every predict kernel (`RandomForest::verify` checks
    /// that before it compiles).
    pub fn compile(forest: &RandomForest) -> Result<Self, CompileError> {
        let n_classes = forest.n_classes();
        let n_features = forest.n_features();
        let trees = forest.trees();
        if trees.is_empty() || n_features == 0 || n_classes == 0 {
            return Err(CompileError::Unfit);
        }

        // Pass 1: the quantization grid — every distinct threshold each
        // feature is ever split on, across all trees, sorted. Exact
        // equivalence needs nothing more: codes are counts of strictly
        // exceeded edges, so any finite threshold present in the list
        // partitions rows identically to the f64 comparison.
        let mut edges: Vec<Vec<f64>> = vec![Vec::new(); n_features];
        for (t, tree) in trees.iter().enumerate() {
            let (feat, thr, _, _) = tree.soa();
            for (i, (&f, &th)) in feat.iter().zip(thr).enumerate() {
                if f == LEAF {
                    continue;
                }
                if !th.is_finite() {
                    return Err(CompileError::NonFiniteThreshold { tree: t, node: i });
                }
                edges[f as usize].push(th);
            }
        }
        for (f, e) in edges.iter_mut().enumerate() {
            e.sort_by(|a, b| a.total_cmp(b));
            e.dedup();
            if e.len() > MAX_EDGES {
                return Err(CompileError::TooManyThresholds {
                    feature: f,
                    distinct: e.len(),
                });
            }
        }

        // Pass 2: renumber each tree breadth-first into the flat store.
        // BFS guarantees parent-before-child, and level order is what lets
        // one trip count advance every row in lockstep.
        let total: usize = trees.iter().map(|t| t.node_count()).sum();
        let mut out = CompiledForest {
            n_classes,
            n_features,
            edges,
            feat: Vec::with_capacity(total),
            tcode: Vec::with_capacity(total),
            children: Vec::with_capacity(2 * total),
            leaf_off: Vec::with_capacity(total),
            leaf_values: Vec::new(),
            tree_roots: Vec::with_capacity(trees.len()),
            tree_depths: Vec::with_capacity(trees.len()),
        };
        let mut order: Vec<u32> = Vec::new();
        let mut new_id: Vec<u32> = Vec::new();
        let mut level: Vec<u32> = Vec::new();
        for tree in trees {
            let (tf, tt, tc, tl) = tree.soa();
            let base = out.feat.len() as u32;
            out.tree_roots.push(base);

            order.clear();
            order.push(0);
            let mut head = 0usize;
            while head < order.len() {
                let old = order[head] as usize;
                if tf[old] != LEAF {
                    order.push(tc[2 * old]);
                    order.push(tc[2 * old + 1]);
                }
                head += 1;
            }
            new_id.clear();
            new_id.resize(tf.len(), u32::MAX);
            for (pos, &old) in order.iter().enumerate() {
                new_id[old as usize] = base + pos as u32;
            }

            level.clear();
            level.resize(order.len(), 0);
            let mut depth = 0u32;
            for (pos, &old) in order.iter().enumerate() {
                let old = old as usize;
                let me = base + pos as u32;
                if tf[old] == LEAF {
                    depth = depth.max(level[pos]);
                    out.feat.push(0);
                    out.tcode.push(0);
                    out.children.extend([me, me]);
                    out.leaf_off.push(out.leaf_values.len() as u32);
                    let off = tc[2 * old] as usize;
                    out.leaf_values.extend_from_slice(&tl[off..off + n_classes]);
                } else {
                    let f = tf[old] as usize;
                    // The threshold is in the edge list by construction;
                    // its index is the count of strictly smaller edges.
                    let code = out.edges[f].partition_point(|&e| e < tt[old]);
                    debug_assert!(code < out.edges[f].len());
                    out.feat.push(tf[old]);
                    out.tcode.push(code as u8);
                    let l = new_id[tc[2 * old] as usize];
                    let r = new_id[tc[2 * old + 1] as usize];
                    out.children.extend([l, r]);
                    out.leaf_off.push(0);
                    level[(l - base) as usize] = level[pos] + 1;
                    level[(r - base) as usize] = level[pos] + 1;
                }
            }
            out.tree_depths.push(depth);
        }
        Ok(out)
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    pub fn node_count(&self) -> usize {
        self.feat.len()
    }

    /// Per-feature quantization edges (sorted distinct split thresholds).
    pub fn edges(&self) -> &[Vec<f64>] {
        &self.edges
    }

    /// Quantize one block of rows: `codes[f * BLOCK + j]` is the count of
    /// `edges[f]` entries strictly exceeded by row `base + j` — the
    /// feature-major layout keeps each split's lookups for a whole block
    /// contiguous.
    fn bin_block(&self, x: &Matrix, base: usize, rows: usize, codes: &mut [u8]) {
        for (f, e) in self.edges.iter().enumerate() {
            for j in 0..rows {
                let v = x.row(base + j)[f];
                codes[f * BLOCK + j] = e.partition_point(|&t| v > t) as u8;
            }
        }
    }

    /// Advance every row of the block one level. No branches: a leaf's
    /// self-loop makes the step idempotent once a row arrives.
    #[inline(always)]
    fn step(&self, codes: &[u8], nodes: &mut [u32]) {
        for (j, node) in nodes.iter_mut().enumerate() {
            let n = *node as usize;
            let f = self.feat[n] as usize;
            let go_right = usize::from(codes[f * BLOCK + j] > self.tcode[n]);
            *node = self.children[2 * n + go_right];
        }
    }

    /// Fixed-trip traversal: the constant count lets the compiler fully
    /// unroll the level loop.
    #[inline(always)]
    fn run_fixed<const D: usize>(&self, codes: &[u8], nodes: &mut [u32]) {
        for _ in 0..D {
            self.step(codes, nodes);
        }
    }

    /// Advance the block exactly `depth` levels. Trees no deeper than
    /// [`MAX_UNROLLED_DEPTH`] dispatch to a monomorphized fixed-trip loop
    /// (a depth-3 tree runs three unrolled steps, not eight idempotent
    /// ones); deeper trees pay a dynamic trip count.
    #[inline(always)]
    fn run_levels(&self, codes: &[u8], nodes: &mut [u32], depth: usize) {
        match depth {
            0 => {}
            1 => self.run_fixed::<1>(codes, nodes),
            2 => self.run_fixed::<2>(codes, nodes),
            3 => self.run_fixed::<3>(codes, nodes),
            4 => self.run_fixed::<4>(codes, nodes),
            5 => self.run_fixed::<5>(codes, nodes),
            6 => self.run_fixed::<6>(codes, nodes),
            7 => self.run_fixed::<7>(codes, nodes),
            8 => self.run_fixed::<8>(codes, nodes),
            d => {
                for _ in 0..d {
                    self.step(codes, nodes);
                }
            }
        }
    }

    /// Average class probabilities for rows `base..base + out.len()/k`
    /// into `out`, bitwise identical to the exact walk: bin the block
    /// once, park every row of every tree on its leaf, accumulate leaf
    /// payloads in tree order, divide by the tree count last.
    fn predict_proba_block(
        &self,
        x: &Matrix,
        base: usize,
        codes: &mut [u8],
        nodes_buf: &mut [u32],
        out: &mut [f64],
    ) {
        let k = self.n_classes;
        let rows = out.len() / k;
        self.bin_block(x, base, rows, codes);
        out.fill(0.0);
        for (t, &root) in self.tree_roots.iter().enumerate() {
            let nodes = &mut nodes_buf[..rows];
            nodes.fill(root);
            self.run_levels(codes, nodes, self.tree_depths[t] as usize);
            for (j, &node) in nodes.iter().enumerate() {
                let off = self.leaf_off[node as usize] as usize;
                let orow = &mut out[j * k..(j + 1) * k];
                for (a, p) in orow.iter_mut().zip(&self.leaf_values[off..off + k]) {
                    *a += p;
                }
            }
        }
        let kt = self.tree_roots.len() as f64;
        for a in out.iter_mut() {
            *a /= kt;
        }
    }

    /// Class-probability matrix for a whole batch, written into a
    /// caller-provided `x.rows() × n_classes` matrix. Parallelism is over
    /// disjoint [`BLOCK`]-row output windows (same blocking as the exact
    /// kernel), each worker reusing one code/node scratch pair.
    pub fn predict_proba_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        let k = self.n_classes;
        debug_assert_eq!(out.rows(), x.rows());
        debug_assert_eq!(out.cols(), k);
        if x.rows() == 0 {
            return;
        }
        let blocks: Vec<()> = out
            .as_mut_slice()
            .par_chunks_mut(BLOCK * k)
            .enumerate()
            .map_init(
                || (vec![0u8; self.n_features * BLOCK], vec![0u32; BLOCK]),
                |(codes, nodes), (blk, chunk)| {
                    self.predict_proba_block(x, blk * BLOCK, codes, nodes, chunk);
                },
            )
            .collect();
        drop(blocks);
    }

    /// Hard predictions for a whole batch, block-parallel and
    /// allocation-free per row.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        let k = self.n_classes;
        let n = x.rows();
        let blocks: Vec<usize> = (0..n.div_ceil(BLOCK)).collect();
        let nested: Vec<Vec<usize>> = blocks
            .into_par_iter()
            .map_init(
                || {
                    (
                        vec![0u8; self.n_features * BLOCK],
                        vec![0u32; BLOCK],
                        vec![0.0f64; BLOCK * k],
                    )
                },
                |(codes, nodes, probs), blk| {
                    let base = blk * BLOCK;
                    let rows = (n - base).min(BLOCK);
                    let out = &mut probs[..rows * k];
                    self.predict_proba_block(x, base, codes, nodes, out);
                    (0..rows)
                        .map(|j| argmax(&out[j * k..(j + 1) * k]))
                        .collect()
                },
            )
            .collect();
        nested.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Classifier;
    use crate::forest::{ForestParams, RandomForest};
    use crate::verify::{ForestIssue, StructureIssue};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            let c: f64 = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b, c]);
            y.push(usize::from(a > b) + usize::from(c > 0.7));
        }
        (Matrix::from_rows(rows), y)
    }

    fn fitted(seed: u64, n_estimators: usize, max_depth: Option<usize>) -> (RandomForest, Matrix) {
        let (x, y) = noisy_data(220, seed);
        let mut f = RandomForest::new(ForestParams {
            n_estimators,
            seed,
            max_depth,
            ..Default::default()
        });
        f.fit(&x, &y, 3).unwrap();
        (f, x)
    }

    /// Bitwise equivalence on fresh query rows, across seeds and both
    /// sides of the unrolled-depth boundary.
    #[test]
    fn compiled_probabilities_bitwise_match_exact() {
        for seed in 0..6 {
            for max_depth in [Some(3), Some(8), Some(9), None] {
                let (f, _) = fitted(seed, 12, max_depth);
                let c = CompiledForest::compile(&f).unwrap();
                let (q, _) = noisy_data(130, seed + 900);
                let mut exact = Matrix::zeros(q.rows(), 3);
                let mut fast = Matrix::zeros(q.rows(), 3);
                f.predict_proba_batch_into_exact(&q, &mut exact);
                c.predict_proba_batch_into(&q, &mut fast);
                assert_eq!(exact, fast, "seed {seed} depth {max_depth:?}");
                assert_eq!(f.predict_batch_exact(&q), c.predict_batch(&q));
            }
        }
    }

    /// Rows placed exactly on quantization edges stay equivalent: `v > t`
    /// is false at `v == t` on both paths.
    #[test]
    fn rows_at_exact_bin_edges_match() {
        let (f, _) = fitted(42, 10, None);
        let c = CompiledForest::compile(&f).unwrap();
        let mut rows = Vec::new();
        for (fi, e) in c.edges().iter().enumerate() {
            for &t in e.iter().take(20) {
                let mut row = vec![0.5; c.n_features()];
                row[fi] = t;
                rows.push(row);
                // And nextafter-style neighbors on both sides.
                let mut lo = vec![0.5; c.n_features()];
                lo[fi] = t - f64::EPSILON;
                rows.push(lo);
                let mut hi = vec![0.5; c.n_features()];
                hi[fi] = t + f64::EPSILON;
                rows.push(hi);
            }
        }
        let q = Matrix::from_rows(rows);
        let mut exact = Matrix::zeros(q.rows(), 3);
        let mut fast = Matrix::zeros(q.rows(), 3);
        f.predict_proba_batch_into_exact(&q, &mut exact);
        c.predict_proba_batch_into(&q, &mut fast);
        assert_eq!(exact, fast);
    }

    /// NaN and out-of-range features: NaN codes to 0 (left, like
    /// `NaN > t == false`); ±∞ clamp to the extreme codes.
    #[test]
    fn nan_and_out_of_range_features_match() {
        let (f, _) = fitted(7, 10, None);
        let c = CompiledForest::compile(&f).unwrap();
        let rows = vec![
            vec![f64::NAN, 0.5, 0.5],
            vec![0.5, f64::NAN, f64::NAN],
            vec![f64::NAN, f64::NAN, f64::NAN],
            vec![-1e300, 1e300, 0.5],
            vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN],
        ];
        let q = Matrix::from_rows(rows);
        let mut exact = Matrix::zeros(q.rows(), 3);
        let mut fast = Matrix::zeros(q.rows(), 3);
        f.predict_proba_batch_into_exact(&q, &mut exact);
        c.predict_proba_batch_into(&q, &mut fast);
        assert_eq!(exact, fast);
        assert_eq!(f.predict_batch_exact(&q), c.predict_batch(&q));
    }

    /// A one-tree, one-feature, two-class forest: a right-leaning chain
    /// splitting on each threshold in turn. Written as JSON and parsed
    /// without `verify`, so it can carry what the trainer never emits —
    /// more than [`MAX_EDGES`] thresholds, or `1e999` (parses to ∞).
    fn chain_forest(thresholds: &[String]) -> RandomForest {
        let m = thresholds.len();
        let (mut feature, mut threshold, mut children) = (Vec::new(), Vec::new(), Vec::new());
        for (i, t) in thresholds.iter().enumerate() {
            // Split at node 2i, its left leaf at 2i + 1 (payload i).
            feature.extend(["0".to_string(), LEAF.to_string()]);
            threshold.extend([t.clone(), "0.0".to_string()]);
            children.push(format!("{},{},{},0", 2 * i + 1, 2 * i + 2, 2 * i));
        }
        feature.push(LEAF.to_string());
        threshold.push("0.0".to_string());
        children.push(format!("{},0", 2 * m));
        let json = format!(
            r#"{{"params":{{"n_estimators":1,"max_depth":null,"min_samples_split":2,
                "min_samples_leaf":1,"max_features":"All","bootstrap":false,"seed":0}},
                "trees":[{{"version":2,"feature":[{}],"threshold":[{}],"children":[{}],
                "leaf_values":[{}],"n_classes":2,"raw_importance":[1.0]}}],
                "n_classes":2,"n_features":1,"oob_score":null}}"#,
            feature.join(","),
            threshold.join(","),
            children.join(","),
            vec!["1.0,0.0"; m + 1].join(","),
        );
        serde_json::from_str(&json).unwrap()
    }

    /// More distinct thresholds on one feature than u8 codes can name:
    /// a typed error from `compile`, and from `verify` before any
    /// prediction is served.
    #[test]
    fn too_many_thresholds_is_a_typed_error() {
        let thresholds = |n: usize| (0..n).map(|i| format!("{i}.5")).collect::<Vec<_>>();
        let fits = chain_forest(&thresholds(MAX_EDGES));
        assert_eq!(fits.verify(), Ok(()));
        assert_eq!(
            fits.predict_batch(&Matrix::from_rows([[3.0], [900.0]]))
                .len(),
            2
        );

        let f = chain_forest(&thresholds(MAX_EDGES + 1));
        let budget = CompileError::TooManyThresholds {
            feature: 0,
            distinct: MAX_EDGES + 1,
        };
        assert_eq!(CompiledForest::compile(&f), Err(budget));
        assert_eq!(
            f.verify(),
            Err(ForestIssue {
                tree: None,
                issue: StructureIssue::ThresholdBudget {
                    feature: 0,
                    distinct: MAX_EDGES + 1
                }
            })
        );
    }

    #[test]
    fn non_finite_threshold_is_a_typed_error() {
        let f = chain_forest(&["0.5".to_string(), "1e999".to_string()]);
        let at = CompileError::NonFiniteThreshold { tree: 0, node: 2 };
        assert_eq!(CompiledForest::compile(&f), Err(at));
        assert_eq!(
            f.verify(),
            Err(ForestIssue {
                tree: Some(0),
                issue: StructureIssue::NonFiniteThreshold { node: 2 }
            })
        );
        // Never verified, not quantizable: answers like an unfit forest.
        assert_eq!(f.predict_batch(&Matrix::from_rows([[9.0]])), vec![0]);
    }

    #[test]
    fn unfit_forest_does_not_compile() {
        let f = RandomForest::new(ForestParams::default());
        assert_eq!(CompiledForest::compile(&f), Err(CompileError::Unfit));
    }
}
