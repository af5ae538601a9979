//! Multinomial Gradient Boosting (Friedman's GBM with softmax loss),
//! regression trees on the per-class negative gradient.

use pml_mlcore::binned::MAX_BINS;
use pml_mlcore::classifier::validate_fit;
use pml_mlcore::{
    BinnedMatrix, Classifier, Matrix, MaxFeatures, MlError, RegressionTree, TreeParams, TreeScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Gradient Boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GBoostParams {
    pub n_estimators: usize,
    pub learning_rate: f64,
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Row subsample fraction per boosting round (stochastic GBM).
    pub subsample: f64,
    pub seed: u64,
}

impl Default for GBoostParams {
    fn default() -> Self {
        GBoostParams {
            n_estimators: 100,
            learning_rate: 0.1,
            max_depth: 3,
            min_samples_leaf: 1,
            subsample: 1.0,
            seed: 0,
        }
    }
}

/// One boosting round: one regression tree per class.
#[derive(Debug, Clone, PartialEq)]
struct Round {
    trees: Vec<RegressionTree>,
}

/// Softmax gradient-boosted trees.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    params: GBoostParams,
    rounds: Vec<Round>,
    /// Log-prior initialization per class.
    base_score: Vec<f64>,
    n_classes: usize,
}

impl GradientBoosting {
    pub fn new(params: GBoostParams) -> Self {
        GradientBoosting {
            params,
            rounds: Vec::new(),
            base_score: Vec::new(),
            n_classes: 0,
        }
    }

    pub fn params(&self) -> &GBoostParams {
        &self.params
    }

    /// Raw (pre-softmax) scores for one sample.
    fn raw_scores(&self, row: &[f64]) -> Vec<f64> {
        let mut f = self.base_score.clone();
        for round in &self.rounds {
            for (fc, tree) in f.iter_mut().zip(&round.trees) {
                *fc += self.params.learning_rate * tree.predict_row(row);
            }
        }
        f
    }
}

fn softmax(scores: &[f64]) -> Vec<f64> {
    let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exp: Vec<f64> = scores.iter().map(|s| (s - m).exp()).collect();
    let z: f64 = exp.iter().sum();
    exp.into_iter().map(|e| e / z).collect()
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<(), MlError> {
        validate_fit(x.rows(), y, n_classes)?;
        if self.params.n_estimators < 1 {
            return Err(MlError::InvalidParam {
                param: "n_estimators",
                why: "need at least one boosting round".into(),
            });
        }
        if self.params.learning_rate <= 0.0 {
            return Err(MlError::InvalidParam {
                param: "learning_rate",
                why: format!("{} is not positive", self.params.learning_rate),
            });
        }
        if !(self.params.subsample > 0.0 && self.params.subsample <= 1.0) {
            return Err(MlError::InvalidParam {
                param: "subsample",
                why: format!("{} not in (0, 1]", self.params.subsample),
            });
        }
        self.n_classes = n_classes;
        let n = x.rows();

        // Log-prior init (with Laplace smoothing for absent classes).
        let mut counts = vec![1.0f64; n_classes];
        for &c in y {
            counts[c] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        self.base_score = counts.iter().map(|c| (c / total).ln()).collect();

        let tree_params = TreeParams {
            max_depth: Some(self.params.max_depth),
            min_samples_split: 2,
            min_samples_leaf: self.params.min_samples_leaf,
            max_features: MaxFeatures::All,
        };

        // Bin the features once; every boosting round's trees train over
        // index slices into the shared binned matrix (no per-round row
        // materialization), reusing one scratch and gradient buffer.
        let binned = BinnedMatrix::from_matrix(x, MAX_BINS);
        let mut scratch = TreeScratch::default();
        let mut grad = vec![0.0f64; n];

        // Current raw scores per (sample, class).
        let mut f: Vec<Vec<f64>> = (0..n).map(|_| self.base_score.clone()).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        self.rounds.clear();

        debug_assert!(n < u32::MAX as usize, "row ids must fit u32");
        for _ in 0..self.params.n_estimators {
            // Stochastic row subsample for this round.
            let sample: Vec<u32> = if self.params.subsample < 1.0 {
                use rand::seq::SliceRandom;
                let k = ((n as f64) * self.params.subsample).ceil() as usize;
                let mut all: Vec<usize> = (0..n).collect();
                all.shuffle(&mut rng);
                all.truncate(k.max(1));
                all.into_iter().map(|i| i as u32).collect()
            } else {
                (0..n as u32).collect()
            };

            let mut trees = Vec::with_capacity(n_classes);
            for c in 0..n_classes {
                // Negative gradient of softmax cross-entropy: y_ic − p_ic,
                // written at the original row ids the index slice refers to.
                for &i in &sample {
                    let i = i as usize;
                    let p = softmax(&f[i]);
                    grad[i] = (if y[i] == c { 1.0 } else { 0.0 }) - p[c];
                }
                let tree = RegressionTree::fit_binned(
                    &binned,
                    &grad,
                    &sample,
                    &tree_params,
                    &mut rng,
                    &mut scratch,
                );
                trees.push(tree);
            }
            // Update scores on all samples.
            for (i, fi) in f.iter_mut().enumerate() {
                for (c, tree) in trees.iter().enumerate() {
                    fi[c] += self.params.learning_rate * tree.predict_row(x.row(i));
                }
            }
            self.rounds.push(Round { trees });
        }
        Ok(())
    }

    fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        // With no boosting rounds the raw scores are the base scores and the
        // softmax is well-defined, so an unfit model degrades to its prior
        // instead of aborting.
        debug_assert!(!self.rounds.is_empty(), "predict before fit");
        softmax(&self.raw_scores(row))
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn three_class_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..3.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b]);
            y.push(a as usize); // class = floor of a
        }
        (Matrix::from_rows(rows), y)
    }

    #[test]
    fn learns_three_classes() {
        let (x, y) = three_class_data(300, 1);
        let (xt, yt) = three_class_data(150, 2);
        let mut g = GradientBoosting::new(GBoostParams {
            n_estimators: 30,
            ..Default::default()
        });
        g.fit(&x, &y, 3).unwrap();
        let acc = crate::metrics::accuracy(&yt, &g.predict(&xt));
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn more_rounds_reduce_training_error() {
        let (x, y) = three_class_data(200, 3);
        let mut weak = GradientBoosting::new(GBoostParams {
            n_estimators: 2,
            ..Default::default()
        });
        let mut strong = GradientBoosting::new(GBoostParams {
            n_estimators: 40,
            ..Default::default()
        });
        weak.fit(&x, &y, 3).unwrap();
        strong.fit(&x, &y, 3).unwrap();
        let aw = crate::metrics::accuracy(&y, &weak.predict(&x));
        let as_ = crate::metrics::accuracy(&y, &strong.predict(&x));
        assert!(as_ >= aw);
    }

    #[test]
    fn probabilities_are_distributions() {
        let (x, y) = three_class_data(100, 4);
        let mut g = GradientBoosting::new(GBoostParams {
            n_estimators: 5,
            ..Default::default()
        });
        g.fit(&x, &y, 3).unwrap();
        for i in 0..x.rows() {
            let p = g.predict_proba_row(x.row(i));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = three_class_data(120, 5);
        let params = GBoostParams {
            n_estimators: 8,
            subsample: 0.7,
            seed: 11,
            ..Default::default()
        };
        let mut a = GradientBoosting::new(params);
        let mut b = GradientBoosting::new(params);
        a.fit(&x, &y, 3).unwrap();
        b.fit(&x, &y, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn softmax_is_stable_for_large_scores() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }
}
