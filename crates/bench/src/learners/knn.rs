//! K-Nearest-Neighbours classifier (z-scored Euclidean distance, majority
//! vote). One of the two simple baselines the paper found to underfit.

use pml_mlcore::classifier::validate_fit;
use pml_mlcore::{Classifier, Matrix, MlError};
use serde::{Deserialize, Serialize};

/// KNN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnnParams {
    pub k: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams { k: 5 }
    }
}

/// Standardizing KNN. Stores the training set (it is a lazy learner).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Knn {
    params: KnnParams,
    x: Option<Matrix>,
    y: Vec<usize>,
    mean: Vec<f64>,
    std: Vec<f64>,
    n_classes: usize,
}

impl Knn {
    pub fn new(params: KnnParams) -> Self {
        Knn {
            params,
            x: None,
            y: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
            n_classes: 0,
        }
    }

    pub fn params(&self) -> &KnnParams {
        &self.params
    }

    fn standardize(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| if *s > 0.0 { (v - m) / s } else { 0.0 })
            .collect()
    }
}

/// Per-column mean and standard deviation (population), for the
/// distance/margin-based models that need standardized inputs.
pub(crate) fn column_stats(x: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let rows = || (0..x.rows()).map(|i| x.row(i));
    let mut mean = vec![0.0; x.cols()];
    for row in rows() {
        for (m, v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    let n = x.rows().max(1) as f64;
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0; x.cols()];
    for row in rows() {
        for ((s, v), m) in var.iter_mut().zip(row).zip(&mean) {
            *s += (v - m) * (v - m);
        }
    }
    let std: Vec<f64> = var.iter().map(|s| (s / n).sqrt()).collect();
    (mean, std)
}

impl Classifier for Knn {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<(), MlError> {
        validate_fit(x.rows(), y, n_classes)?;
        if self.params.k < 1 {
            return Err(MlError::InvalidParam {
                param: "k",
                why: "must be at least 1".into(),
            });
        }
        let (mean, std) = column_stats(x);
        self.mean = mean;
        self.std = std;
        let mut z = Matrix::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            let s = self.standardize(x.row(i));
            z.row_mut(i).copy_from_slice(&s);
        }
        self.x = Some(z);
        self.y = y.to_vec();
        self.n_classes = n_classes;
        Ok(())
    }

    fn predict_proba_row(&self, row: &[f64]) -> Vec<f64> {
        debug_assert!(self.x.is_some(), "predict before fit");
        let Some(x) = self.x.as_ref() else {
            // Unfit model: uniform distribution, never an abort.
            return vec![1.0 / self.n_classes.max(1) as f64; self.n_classes];
        };
        let q = self.standardize(row);
        // Distances to every training point; take the k smallest.
        let mut dist: Vec<(f64, usize)> = (0..x.rows())
            .map(|i| {
                let d: f64 = x
                    .row(i)
                    .iter()
                    .zip(&q)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (d, self.y[i])
            })
            .collect();
        let k = self.params.k.min(dist.len());
        dist.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let mut votes = vec![0.0; self.n_classes];
        for &(_, c) in &dist[..k] {
            votes[c] += 1.0;
        }
        for v in &mut votes {
            *v /= k as f64;
        }
        votes
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_neighbour_classifies_blobs() {
        let x = Matrix::from_rows([[0.0, 0.0], [0.1, 0.1], [5.0, 5.0], [5.1, 5.2]]);
        let y = vec![0, 0, 1, 1];
        let mut m = Knn::new(KnnParams { k: 1 });
        m.fit(&x, &y, 2).unwrap();
        assert_eq!(
            m.predict(&Matrix::from_rows([[0.05, 0.0], [5.05, 5.1]])),
            vec![0, 1]
        );
    }

    #[test]
    fn standardization_rescues_dominant_feature() {
        // Feature 0 has a huge scale but is pure noise; feature 1 decides.
        let x = Matrix::from_rows([[1000.0, 0.0], [-950.0, 0.1], [980.0, 5.0], [-990.0, 5.1]]);
        let y = vec![0, 0, 1, 1];
        let mut m = Knn::new(KnnParams { k: 1 });
        m.fit(&x, &y, 2).unwrap();
        let pred = m.predict(&Matrix::from_rows([[0.0, 0.05], [0.0, 5.05]]));
        assert_eq!(pred, vec![0, 1]);
    }

    #[test]
    fn votes_are_probabilities() {
        let x = Matrix::from_rows([[0.0], [0.2], [0.4], [5.0]]);
        let y = vec![0, 0, 1, 1];
        let mut m = Knn::new(KnnParams { k: 3 });
        m.fit(&x, &y, 2).unwrap();
        let p = m.predict_proba_row(&[0.1]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p, vec![2.0 / 3.0, 1.0 / 3.0]);
    }

    #[test]
    fn column_stats() {
        let m = Matrix::from_rows([[1.0, 10.0], [3.0, 10.0]]);
        let (mean, std) = super::column_stats(&m);
        assert_eq!(mean, vec![2.0, 10.0]);
        assert_eq!(std[0], 1.0);
        assert_eq!(std[1], 0.0);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let x = Matrix::from_rows([[0.0], [1.0]]);
        let y = vec![0, 1];
        let mut m = Knn::new(KnnParams { k: 50 });
        m.fit(&x, &y, 2).unwrap();
        let p = m.predict_proba_row(&[0.4]);
        assert_eq!(p, vec![0.5, 0.5]);
    }
}
