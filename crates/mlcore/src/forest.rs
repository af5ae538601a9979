//! Random Forest classifier — the model the paper selects (§V-C), with the
//! Gini-decrease feature importances behind its Figs. 5–6.
//!
//! Training bins the feature matrix once ([`BinnedMatrix`]) and fits every
//! tree over index slices into it — bootstrap sampling never copies row
//! data, and each rayon worker reuses one [`TreeScratch`] across all the
//! trees it grows. `fit` ends by compiling the ensemble into its
//! [`CompiledForest`] twin — the only batch inference path.

use crate::binned::{BinnedMatrix, MAX_BINS};
use crate::classifier::{validate_fit, Classifier};
use crate::compiled::{CompileError, CompiledForest};
use crate::error::MlError;
use crate::matrix::Matrix;
use crate::tree::{argmax, normalize, DecisionTree, MaxFeatures, TreeParams, TreeScratch};
use crate::verify::{ForestIssue, ForestLoadError, StructureIssue};
use pml_obs::{span, Counter, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::{Reader, Writer};
use std::sync::OnceLock;

/// Trees fitted across every forest trained in this process.
static TRAIN_TREES: Counter = Counter::new("train.trees");
/// Node count per fitted tree.
static TRAIN_TREE_NODES: Histogram = Histogram::new("train.tree.nodes", &pml_obs::SIZE_BOUNDS);

/// Rows per parallel work unit in the batched inference kernels, and trees
/// per work unit in the OOB pass. Fixed (not derived from thread count) so
/// floating-point accumulation order — and therefore every serialized
/// artifact — is identical on any machine. The compiled kernel shares the
/// same blocking (`crate::compiled` bins codes with this stride).
pub(crate) const BLOCK: usize = 64;
const OOB_CHUNK: usize = 8;

/// Random Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    pub n_estimators: usize,
    pub max_depth: Option<usize>,
    pub min_samples_split: usize,
    pub min_samples_leaf: usize,
    pub max_features: MaxFeatures,
    /// Bootstrap-sample each tree's training set.
    pub bootstrap: bool,
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_estimators: 100,
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// Bagged ensemble of Gini CART trees with per-split feature subsampling.
///
/// Carries its [`CompiledForest`] twin (quantized branchless batch
/// kernel), built by `fit` and `verify` and otherwise on first use; the
/// cache is invisible to equality and serialization — both are
/// hand-written below, the serialized form byte-identical to the derived
/// one it replaced.
#[derive(Debug)]
pub struct RandomForest {
    params: ForestParams,
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
    oob_score: Option<f64>,
    /// Unset until the first compile attempt, whose outcome it keeps.
    compiled: OnceLock<Result<CompiledForest, CompileError>>,
}

impl Clone for RandomForest {
    fn clone(&self) -> Self {
        let compiled = OnceLock::new();
        if let Some(c) = self.compiled.get() {
            compiled.set(c.clone()).ok();
        }
        RandomForest {
            params: self.params,
            trees: self.trees.clone(),
            n_classes: self.n_classes,
            n_features: self.n_features,
            oob_score: self.oob_score,
            compiled,
        }
    }
}

impl PartialEq for RandomForest {
    fn eq(&self, other: &Self) -> bool {
        // The compiled cache is derived state: two forests are equal iff
        // their semantic fields are, whether or not either was compiled.
        self.params == other.params
            && self.trees == other.trees
            && self.n_classes == other.n_classes
            && self.n_features == other.n_features
            && self.oob_score == other.oob_score
    }
}

impl RandomForest {
    pub fn new(params: ForestParams) -> Self {
        RandomForest {
            params,
            trees: Vec::new(),
            n_classes: 0,
            n_features: 0,
            oob_score: None,
            compiled: OnceLock::new(),
        }
    }

    pub fn params(&self) -> &ForestParams {
        &self.params
    }

    /// Number of features the forest was fitted on (0 before fitting).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes the forest was fitted on (0 before fitting).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The fitted trees, for the compiled-forest builder.
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The cached compile attempt: made at most once per fitted ensemble.
    fn compile_cached(&self) -> Result<&CompiledForest, &CompileError> {
        self.compiled
            .get_or_init(|| CompiledForest::compile(self))
            .as_ref()
    }

    /// The quantized branchless twin every batch prediction runs on.
    /// `None` only for a forest that is unfit, or that skipped both `fit`
    /// and `verify` and cannot be quantized.
    pub fn compiled(&self) -> Option<&CompiledForest> {
        self.compile_cached().ok()
    }

    /// Compile afresh, bypassing the cache.
    pub fn compile(&self) -> Result<CompiledForest, CompileError> {
        CompiledForest::compile(self)
    }

    /// Prove every structural invariant of the ensemble: each tree's SoA
    /// store is well-formed (child indices in-bounds, parent-before-child
    /// order, contiguous leaf arena, per-leaf probability simplex — see
    /// `DecisionTree::verify`), every tree agrees with the ensemble on the
    /// class and feature counts, and the ensemble compiles (finite
    /// thresholds within the u8 code budget) — the compiled twin stays
    /// cached for prediction. Deserialization checks parse shape only; run
    /// this on any forest that crossed a trust boundary before predicting
    /// with it.
    pub fn verify(&self) -> Result<(), ForestIssue> {
        let ensemble = |issue| ForestIssue { tree: None, issue };
        if self.trees.is_empty() {
            return Err(ensemble(StructureIssue::Empty));
        }
        for (i, t) in self.trees.iter().enumerate() {
            let located = |issue| ForestIssue {
                tree: Some(i),
                issue,
            };
            if t.n_classes() != self.n_classes {
                return Err(located(StructureIssue::ClassCount {
                    expected: self.n_classes,
                    actual: t.n_classes(),
                }));
            }
            if t.raw_importance().len() != self.n_features {
                return Err(located(StructureIssue::ImportanceLength {
                    expected: self.n_features,
                    actual: t.raw_importance().len(),
                }));
            }
            t.verify().map_err(located)?;
        }
        match self.compile_cached() {
            Ok(_) => Ok(()),
            Err(CompileError::Unfit) => Err(ensemble(StructureIssue::Empty)),
            Err(&CompileError::TooManyThresholds { feature, distinct }) => {
                Err(ensemble(StructureIssue::ThresholdBudget {
                    feature,
                    distinct,
                }))
            }
            Err(&CompileError::NonFiniteThreshold { tree, node }) => Err(ForestIssue {
                tree: Some(tree),
                issue: StructureIssue::NonFiniteThreshold { node },
            }),
        }
    }

    /// Append the forest to `w` as one object. Field order and number
    /// forms are the derived printer's, byte for byte (the determinism
    /// tests and the benchmark's artifact digests pin model JSON).
    pub fn write_json(&self, w: &mut Writer) {
        // Five bytes a number on trained models; six, so the one allocation
        // is almost always the last without being much more than is used.
        let numbers: usize = self.trees.iter().map(DecisionTree::json_numbers).sum();
        w.reserve(256 + 6 * numbers);
        w.begin_object();
        w.key("params");
        w.value(&self.params);
        w.key("trees");
        w.begin_array();
        for t in &self.trees {
            t.write_json(w);
        }
        w.end_array();
        w.key("n_classes");
        w.value(&self.n_classes);
        w.key("n_features");
        w.value(&self.n_features);
        w.key("oob_score");
        w.value(&self.oob_score);
        w.end_object();
    }

    /// Read the forest object `r` stands at, every tree's arrays going
    /// straight from the text into its SoA store. Parse shape only: the
    /// result has crossed a trust boundary and is not to predict before
    /// [`Self::verify`] passes.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Self, serde_json::Error> {
        let (mut params, mut trees, mut n_classes) = (None, None, None);
        let (mut n_features, mut oob_score) = (None, None);
        r.object(|r, key| match &*key {
            "params" => r.once(&mut params, Reader::parse),
            "trees" => r.once(&mut trees, |r| r.elements(DecisionTree::read_json)),
            "n_classes" => r.once(&mut n_classes, Reader::number),
            "n_features" => r.once(&mut n_features, Reader::number),
            "oob_score" => r.once(&mut oob_score, Reader::parse),
            _ => r.skip_value(),
        })?;
        Ok(RandomForest {
            params: serde_json::required(params, "params")?,
            trees: serde_json::required(trees, "trees")?,
            n_classes: serde_json::required(n_classes, "n_classes")?,
            n_features: serde_json::required(n_features, "n_features")?,
            oob_score: oob_score.flatten(),
            compiled: OnceLock::new(),
        })
    }

    /// Parse a serialized forest and structurally verify it — the
    /// trust-boundary load path. Corrupt artifacts come back as typed
    /// errors instead of indexing out of bounds during descent.
    pub fn from_json(s: &str) -> Result<Self, ForestLoadError> {
        let mut r = Reader::new(s);
        let forest = Self::read_json(&mut r)
            .and_then(|forest| r.end().map(|()| forest))
            .map_err(|e| ForestLoadError::Parse(e.to_string()))?;
        forest.verify().map_err(ForestLoadError::Structure)?;
        Ok(forest)
    }

    /// Out-of-bag accuracy estimate (only available with bootstrap).
    pub fn oob_score(&self) -> Option<f64> {
        self.oob_score
    }

    /// Mean decrease in Gini impurity per feature, accumulated over all
    /// trees and normalized to sum 1 — the paper's Eq. (1) importance.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_features];
        for t in &self.trees {
            for (a, r) in acc.iter_mut().zip(t.raw_importance()) {
                *a += r;
            }
        }
        normalize(acc)
    }

    /// Class-probability matrix for a whole batch of rows, written into a
    /// caller-provided matrix of shape `x.rows() × n_classes`. This is the
    /// only inference path: tuning-table generation and the ML selector
    /// push entire job grids through here, and
    /// [`Classifier::predict_proba_row`] is a one-row batch. A forest
    /// without a compiled twin (see [`Self::compiled`]) answers the uniform
    /// distribution, like an unfit one.
    pub fn predict_proba_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        match self.compiled() {
            Some(c) => c.predict_proba_batch_into(x, out),
            None => out.as_mut_slice().fill(1.0 / self.n_classes.max(1) as f64),
        }
    }

    /// The exact f64 walk over the original trees — the oracle the
    /// compiled kernel is property-tested against, bit for bit. Workers
    /// fill disjoint row blocks of the output buffer directly.
    pub fn predict_proba_batch_into_exact(&self, x: &Matrix, out: &mut Matrix) {
        let k = self.n_classes.max(1);
        debug_assert_eq!(out.rows(), x.rows());
        debug_assert_eq!(out.cols(), k);
        if x.rows() == 0 {
            return;
        }
        out.as_mut_slice()
            .par_chunks_mut(BLOCK * k)
            .enumerate()
            .for_each(|(blk, chunk)| {
                let base = blk * BLOCK;
                for (j, orow) in chunk.chunks_mut(k).enumerate() {
                    self.average_leaves(x.row(base + j), orow);
                }
            });
    }

    /// The mean of every tree's leaf for `row`, written into `out`; the
    /// uniform distribution for an unfit forest, never an abort.
    fn average_leaves(&self, row: &[f64], out: &mut [f64]) {
        if self.trees.is_empty() {
            out.fill(1.0 / self.n_classes.max(1) as f64);
            return;
        }
        out.fill(0.0);
        for t in &self.trees {
            for (a, p) in out.iter_mut().zip(t.predict_proba_slice(row)) {
                *a += p;
            }
        }
        let k = self.trees.len() as f64;
        for a in out.iter_mut() {
            *a /= k;
        }
    }

    /// Class-probability matrix for a whole batch of rows.
    pub fn predict_proba_batch(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_classes.max(1));
        self.predict_proba_batch_into(x, &mut out);
        out
    }

    /// Hard predictions for a whole batch of rows, in parallel; class 0
    /// throughout for a forest without a compiled twin.
    pub fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        match self.compiled() {
            Some(c) => c.predict_batch(x),
            None => vec![0; x.rows()],
        }
    }

    /// Argmax over [`Self::predict_proba_batch_into_exact`].
    pub fn predict_batch_exact(&self, x: &Matrix) -> Vec<usize> {
        let mut proba = Matrix::zeros(x.rows(), self.n_classes.max(1));
        self.predict_proba_batch_into_exact(x, &mut proba);
        (0..x.rows()).map(|i| argmax(proba.row(i))).collect()
    }

    /// [`Classifier::fit`] without the out-of-bag pass, so
    /// [`Self::oob_score`] is `None`: for a forest read only for its
    /// [`Self::feature_importances`]. Trees and compiled twin are `fit`'s.
    pub fn fit_without_oob(
        &mut self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
    ) -> Result<(), MlError> {
        self.grow(x, y, n_classes, false)
    }

    /// The growth step both fits share: grow every tree over one binning,
    /// score the ensemble out of bag when `oob` is set and the trees are
    /// bootstrapped, keep the trees and compile them.
    fn grow(
        &mut self,
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        oob: bool,
    ) -> Result<(), MlError> {
        validate_fit(x.rows(), y, n_classes)?;
        if self.params.n_estimators < 1 {
            return Err(MlError::InvalidParam {
                param: "n_estimators",
                why: "need at least one tree".into(),
            });
        }
        if x.cols() >= u16::MAX as usize {
            return Err(MlError::InvalidParam {
                param: "n_features",
                why: format!("{} features exceed the u16 tree layout", x.cols()),
            });
        }
        self.n_classes = n_classes;
        self.n_features = x.cols();
        let n = x.rows();
        let tree_params = TreeParams {
            max_depth: self.params.max_depth,
            min_samples_split: self.params.min_samples_split,
            min_samples_leaf: self.params.min_samples_leaf,
            max_features: self.params.max_features,
        };

        // Per-tree seeds derived up front so training can run in parallel
        // yet stay deterministic.
        let seeds: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(self.params.seed);
            (0..self.params.n_estimators).map(|_| rng.gen()).collect()
        };

        let bootstrap = self.params.bootstrap;
        debug_assert!(n < u32::MAX as usize, "row ids must fit u32");
        // A `usize` range keeps the RNG stream aligned with models trained
        // before row ids were `u32`.
        let draw_sample = |rng: &mut StdRng| -> Vec<u32> {
            if bootstrap {
                (0..n).map(|_| rng.gen_range(0..n) as u32).collect()
            } else {
                (0..n as u32).collect()
            }
        };

        let _span = span!("fit.forest", trees = self.params.n_estimators, rows = n);
        // Bin once; every tree trains over index slices into the shared
        // binned matrix — no per-tree row materialization.
        let binned = {
            let _span = span!("fit.bin", rows = n, cols = x.cols());
            BinnedMatrix::from_matrix(x, MAX_BINS)
        };
        let fitted: Vec<(DecisionTree, Vec<u32>)> = seeds
            .par_iter()
            .map_init(TreeScratch::default, |scratch, &seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let sample = draw_sample(&mut rng);
                let tree = DecisionTree::fit_binned(
                    &binned,
                    y,
                    &sample,
                    n_classes,
                    &tree_params,
                    &mut rng,
                    scratch,
                );
                (tree, sample)
            })
            .collect();

        TRAIN_TREES.add(fitted.len() as u64);
        for (tree, _) in &fitted {
            TRAIN_TREE_NODES.observe(tree.node_count() as u64);
        }

        // OOB score: vote each sample with the trees that never saw it.
        // Fixed-size tree chunks fan out over rayon (one in-bag buffer per
        // worker); partial votes merge back in chunk order so the float
        // summation order never depends on thread count.
        self.oob_score = if bootstrap && oob {
            let _span = span!("fit.oob", trees = fitted.len());
            let chunks: Vec<&[(DecisionTree, Vec<u32>)]> = fitted.chunks(OOB_CHUNK).collect();
            let partials: Vec<(Vec<f64>, Vec<bool>)> = chunks
                .par_iter()
                .map_init(
                    || vec![false; n],
                    |in_bag, chunk| {
                        let mut votes = vec![0.0f64; n * n_classes];
                        let mut any = vec![false; n];
                        for (tree, sample) in chunk.iter() {
                            in_bag.fill(false);
                            for &i in sample {
                                in_bag[i as usize] = true;
                            }
                            for (i, bagged) in in_bag.iter().enumerate() {
                                if !bagged {
                                    let p = tree.predict_proba_slice(x.row(i));
                                    let v = &mut votes[i * n_classes..(i + 1) * n_classes];
                                    for (vi, pi) in v.iter_mut().zip(p) {
                                        *vi += pi;
                                    }
                                    any[i] = true;
                                }
                            }
                        }
                        (votes, any)
                    },
                )
                .collect();
            let mut votes = vec![0.0f64; n * n_classes];
            let mut any = vec![false; n];
            for (pv, pa) in &partials {
                for (v, p) in votes.iter_mut().zip(pv) {
                    *v += p;
                }
                for (a, p) in any.iter_mut().zip(pa) {
                    *a |= p;
                }
            }
            let mut correct = 0usize;
            let mut counted = 0usize;
            for i in 0..n {
                if any[i] {
                    counted += 1;
                    if argmax(&votes[i * n_classes..(i + 1) * n_classes]) == y[i] {
                        correct += 1;
                    }
                }
            }
            (counted > 0).then(|| correct as f64 / counted as f64)
        } else {
            None
        };

        self.trees = fitted.into_iter().map(|(t, _)| t).collect();
        // Replace the previous ensemble's twin. Only a split on a
        // non-finite bin edge (−∞ in the feature data) fails here.
        self.compiled = OnceLock::new();
        self.compile_cached()
            .map_err(|e| MlError::Compile(e.clone()))?;
        Ok(())
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<(), MlError> {
        self.grow(x, y, n_classes, true)
    }

    /// A one-row batch through the compiled kernel.
    fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        let x = Matrix::from_vec(row.to_vec(), 1, row.len());
        self.predict_proba_batch(&x).as_slice().to_vec()
    }

    /// Batched override of the default per-row loop.
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        self.predict_proba_batch(x)
    }

    /// Batched override of the default per-row loop.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_batch(x)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod value_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Noisy two-moon-ish data: class = x0 + noise > x1.
    fn noisy_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            let noise: f64 = rng.gen_range(-0.05..0.05);
            rows.push(vec![a, b, rng.gen_range(0.0..1.0)]); // third column: noise
            y.push(usize::from(a + noise > b));
        }
        (Matrix::from_rows(rows), y)
    }

    #[test]
    fn learns_noisy_boundary() {
        let (x, y) = noisy_data(400, 1);
        let (xt, yt) = noisy_data(200, 2);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 40,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        let hits = yt.iter().zip(f.predict(&xt)).filter(|(t, p)| **t == *p);
        let acc = hits.count() as f64 / yt.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_data(100, 3);
        let mut a = RandomForest::new(ForestParams {
            n_estimators: 10,
            seed: 7,
            ..Default::default()
        });
        let mut b = RandomForest::new(ForestParams {
            n_estimators: 10,
            seed: 7,
            ..Default::default()
        });
        a.fit(&x, &y, 2).unwrap();
        b.fit(&x, &y, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn oob_score_close_to_holdout_accuracy() {
        let (x, y) = noisy_data(500, 4);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 60,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        let oob = f.oob_score().unwrap();
        assert!(oob > 0.85, "oob {oob}");
    }

    #[test]
    fn importances_ignore_pure_noise_feature() {
        let (x, y) = noisy_data(600, 5);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 40,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        let imp = f.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Informative features dominate the noise column.
        assert!(imp[0] > imp[2] && imp[1] > imp[2], "{imp:?}");
    }

    #[test]
    fn probabilities_are_distributions() {
        let (x, y) = noisy_data(100, 6);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 15,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        let p = f.predict_proba(&x);
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn batch_prediction_matches_per_row() {
        let (x, y) = noisy_data(120, 9);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 10,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        assert_eq!(f.predict_batch(&x), f.predict_batch_exact(&x));
        let mut exact = Matrix::zeros(x.rows(), 2);
        f.predict_proba_batch_into_exact(&x, &mut exact);
        let batched = f.predict_proba_batch(&x);
        for i in 0..x.rows() {
            assert_eq!(batched.row(i), exact.row(i));
            assert_eq!(f.predict_proba_row(x.row(i)), exact.row(i));
        }
    }

    #[test]
    fn proba_into_matches_allocating_variant() {
        let (x, y) = noisy_data(50, 11);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 8,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        let mut out = Matrix::zeros(x.rows(), 2);
        f.predict_proba_batch_into(&x, &mut out);
        assert_eq!(out, f.predict_proba_batch(&x));
        let mut exact = Matrix::zeros(x.rows(), 2);
        f.predict_proba_batch_into_exact(&x, &mut exact);
        assert_eq!(out, exact);
    }

    /// Artifacts written while `ForestParams` still carried a
    /// `split_finder` option load as if the key were absent: it selected a
    /// trainer, and nothing about a trained forest depends on it.
    #[test]
    fn legacy_split_finder_key_is_ignored() {
        let (x, y) = noisy_data(80, 12);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 6,
            seed: 3,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        let json = serde_json::to_string(&f).unwrap();
        assert!(!json.contains("split_finder"));
        for legacy in [r#""Exact""#, r#"{"Hist":{"max_bins":64}}"#] {
            let keyed = json.replacen(
                r#""params":{"#,
                &format!(r#""params":{{"split_finder":{legacy},"#),
                1,
            );
            assert_ne!(keyed, json);
            let loaded = RandomForest::from_json(&keyed).unwrap();
            assert_eq!(loaded, f);
            assert_eq!(loaded.predict_proba_batch(&x), f.predict_proba_batch(&x));
            assert_eq!(serde_json::to_string(&loaded).unwrap(), json);
        }
    }

    /// The bin edge between −∞ and the finite values is −∞ itself, and a
    /// split there cannot be quantized: `fit` says so instead of leaving a
    /// forest that cannot serve predictions. (+∞ and NaN rows never get
    /// that far: `v > edge` is false at their own edge, so they fall into
    /// a neighbouring bin and no split can land on it.)
    #[test]
    fn fit_on_non_finite_features_is_a_typed_error() {
        let ninf = f64::NEG_INFINITY;
        let x = Matrix::from_rows([[ninf], [ninf], [ninf], [1.0], [1.0], [1.0]]);
        let y = [0, 0, 0, 1, 1, 1];
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 1,
            bootstrap: false,
            ..Default::default()
        });
        assert_eq!(
            f.fit(&x, &y, 2),
            Err(MlError::Compile(CompileError::NonFiniteThreshold {
                tree: 0,
                node: 0
            }))
        );
        assert!(f.compiled().is_none());
        assert_eq!(f.predict_batch(&x), vec![0; 6]);

        let inf = f64::INFINITY;
        let x = Matrix::from_rows([[0.0], [0.0], [1.0], [inf], [inf], [f64::NAN]]);
        assert_eq!(f.fit(&x, &y, 2), Ok(()));
    }

    /// With no feature columns there is nothing to split on, whatever the
    /// per-split draw: every `MaxFeatures` fits to the same typed error
    /// instead of a panic inside a worker thread.
    #[test]
    fn zero_column_fit_is_a_typed_error_for_every_max_features() {
        let x = Matrix::zeros(4, 0);
        for max_features in [MaxFeatures::All, MaxFeatures::Sqrt, MaxFeatures::Count(2)] {
            let mut f = RandomForest::new(ForestParams {
                n_estimators: 3,
                max_features,
                ..Default::default()
            });
            assert_eq!(
                f.fit(&x, &[0, 1, 0, 1], 2),
                Err(MlError::Compile(CompileError::Unfit)),
                "{max_features:?}"
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let (x, y) = noisy_data(80, 8);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 8,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        let json = serde_json::to_string(&f).unwrap();
        let back: RandomForest = serde_json::from_str(&json).unwrap();
        assert_eq!(f.predict(&x), back.predict(&x));
    }

    #[test]
    fn from_json_verifies_and_rejects_corruption() {
        let (x, y) = noisy_data(60, 10);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 4,
            ..Default::default()
        });
        f.fit(&x, &y, 2).unwrap();
        assert_eq!(f.verify(), Ok(()));
        let json = serde_json::to_string(&f).unwrap();
        let loaded = RandomForest::from_json(&json).unwrap();
        assert_eq!(loaded.predict(&x), f.predict(&x));

        // A child index flipped out of range surfaces as a typed
        // structural error, never an out-of-bounds descent. The first
        // tree's root is a split, so its left child serializes as 1.
        let corrupt = json.replacen("\"children\":[1,", "\"children\":[40000,", 1);
        assert_ne!(corrupt, json, "expected to corrupt the root's left child");
        match RandomForest::from_json(&corrupt) {
            Err(ForestLoadError::Structure(ForestIssue {
                tree: Some(0),
                issue: StructureIssue::ChildOutOfBounds { .. },
            })) => {}
            other => panic!("expected typed corruption error, got {other:?}"),
        }
        assert!(matches!(
            RandomForest::from_json("{"),
            Err(ForestLoadError::Parse(_))
        ));
        // An unfit forest is not a shippable artifact.
        assert!(RandomForest::new(ForestParams::default()).verify().is_err());
    }
}
