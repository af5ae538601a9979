//! Linear Support Vector Machine, one-vs-rest, trained with the Pegasos
//! stochastic sub-gradient method on the hinge loss. The paper's other
//! underfitting baseline (the tuning-table decision surface is far from
//! linear).

use crate::knn::column_stats;
use pml_mlcore::classifier::validate_fit;
use pml_mlcore::{Classifier, Matrix, MlError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// SVM hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmParams {
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Passes over the data.
    pub epochs: usize,
    pub seed: u64,
}

impl Default for SvmParams {
    fn default() -> Self {
        SvmParams {
            lambda: 1e-3,
            epochs: 30,
            seed: 0,
        }
    }
}

/// One binary hyperplane (w, b) per class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    params: SvmParams,
    /// Per-class weight vectors, in standardized feature space.
    w: Vec<Vec<f64>>,
    b: Vec<f64>,
    mean: Vec<f64>,
    std: Vec<f64>,
    n_classes: usize,
}

impl LinearSvm {
    pub fn new(params: SvmParams) -> Self {
        LinearSvm {
            params,
            w: Vec::new(),
            b: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
            n_classes: 0,
        }
    }

    pub fn params(&self) -> &SvmParams {
        &self.params
    }

    fn standardize(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| if *s > 0.0 { (v - m) / s } else { 0.0 })
            .collect()
    }

    /// Per-class margins for one (already standardized) sample.
    fn margins(&self, z: &[f64]) -> Vec<f64> {
        (0..self.n_classes)
            .map(|c| self.w[c].iter().zip(z).map(|(wi, zi)| wi * zi).sum::<f64>() + self.b[c])
            .collect()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<(), MlError> {
        validate_fit(x.rows(), y, n_classes)?;
        if self.params.lambda <= 0.0 {
            return Err(MlError::InvalidParam {
                param: "lambda",
                why: format!("{} is not positive", self.params.lambda),
            });
        }
        if self.params.epochs < 1 {
            return Err(MlError::InvalidParam {
                param: "epochs",
                why: "need at least one epoch".into(),
            });
        }
        let n = x.rows();
        let d = x.cols();
        self.n_classes = n_classes;
        let (mean, std) = column_stats(x);
        self.mean = mean;
        self.std = std;
        let z: Vec<Vec<f64>> = (0..n).map(|i| self.standardize(x.row(i))).collect();

        self.w = vec![vec![0.0; d]; n_classes];
        self.b = vec![0.0; n_classes];
        let lambda = self.params.lambda;
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut order: Vec<usize> = (0..n).collect();

        for c in 0..n_classes {
            let w = &mut self.w[c];
            let b = &mut self.b[c];
            let mut t = 0u64;
            for _ in 0..self.params.epochs {
                order.shuffle(&mut rng);
                for &i in order.iter() {
                    t += 1;
                    let eta = 1.0 / (lambda * t as f64);
                    let yi = if y[i] == c { 1.0 } else { -1.0 };
                    let margin: f64 = w.iter().zip(&z[i]).map(|(wi, zi)| wi * zi).sum::<f64>() + *b;
                    // w ← (1 − ηλ)w [+ η·y·x when the margin is violated]
                    let shrink = 1.0 - eta * lambda;
                    for wi in w.iter_mut() {
                        *wi *= shrink;
                    }
                    if yi * margin < 1.0 {
                        for (wi, zi) in w.iter_mut().zip(&z[i]) {
                            *wi += eta * yi * zi;
                        }
                        *b += eta * yi;
                    }
                }
            }
        }
        Ok(())
    }

    fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        debug_assert!(!self.w.is_empty(), "predict before fit");
        if self.w.is_empty() {
            // Unfit model: uniform distribution, never an abort.
            return vec![1.0 / self.n_classes.max(1) as f64; self.n_classes];
        }
        let z = self.standardize(row);
        // Softmax over margins: a calibrated-ish score good enough for
        // argmax and AUC ranking.
        let m = self.margins(&z);
        let mx = m.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exp: Vec<f64> = m.iter().map(|v| (v - mx).exp()).collect();
        let s: f64 = exp.iter().sum();
        exp.into_iter().map(|e| e / s).collect()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn linearly_separable(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            rows.push(vec![a, b]);
            y.push(usize::from(a + 2.0 * b > 0.2));
        }
        (Matrix::from_rows(rows), y)
    }

    #[test]
    fn separates_linear_classes() {
        let (x, y) = linearly_separable(400, 1);
        let (xt, yt) = linearly_separable(200, 2);
        let mut m = LinearSvm::new(SvmParams::default());
        m.fit(&x, &y, 2).unwrap();
        let acc = crate::metrics::accuracy(&yt, &m.predict(&xt));
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn underfits_xor_as_expected() {
        // XOR is not linearly separable; a linear SVM must do badly —
        // this is the paper's observed failure mode for SVM.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            rows.push(vec![a, b]);
            y.push(usize::from((a > 0.0) != (b > 0.0)));
        }
        let x = Matrix::from_rows(rows);
        let mut m = LinearSvm::new(SvmParams::default());
        m.fit(&x, &y, 2).unwrap();
        let acc = crate::metrics::accuracy(&y, &m.predict(&x));
        assert!(acc < 0.75, "XOR should not be separable, got {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = linearly_separable(100, 4);
        let mut a = LinearSvm::new(SvmParams {
            seed: 5,
            ..Default::default()
        });
        let mut b = LinearSvm::new(SvmParams {
            seed: 5,
            ..Default::default()
        });
        a.fit(&x, &y, 2).unwrap();
        b.fit(&x, &y, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn multiclass_one_vs_rest() {
        // Three vertical bands.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..90 {
            let a = (i % 3) as f64 * 10.0 + (i as f64 % 1.0);
            rows.push(vec![a, 0.0]);
            y.push(i % 3);
        }
        let x = Matrix::from_rows(rows);
        let mut m = LinearSvm::new(SvmParams {
            epochs: 60,
            ..Default::default()
        });
        m.fit(&x, &y, 3).unwrap();
        let acc = crate::metrics::accuracy(&y, &m.predict(&x));
        assert!(acc > 0.9, "accuracy {acc}");
    }
}
