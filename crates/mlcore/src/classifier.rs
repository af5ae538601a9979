//! The common classifier interface: the Random Forest implements it here,
//! and Table II's comparison learners in `pml-bench` do too.

use crate::error::MlError;
use crate::matrix::Matrix;
use crate::tree::argmax;

/// A multiclass probabilistic classifier.
pub trait Classifier {
    /// Fit on features `x` and labels `y` (each in `0..n_classes`).
    ///
    /// Rejects malformed input — shape mismatches, empty data, labels out
    /// of range, invalid hyperparameters — as an [`MlError`] instead of
    /// panicking, so callers can surface the problem to their own users.
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<(), MlError>;

    /// Class-probability (or score, normalized) vector for one sample.
    fn predict_proba_row(&self, row: &[f64]) -> Vec<f64>;

    /// Number of classes the model was fit with.
    fn n_classes(&self) -> usize;

    /// Class-probability matrix, one row per sample.
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_classes());
        for i in 0..x.rows() {
            let p = self.predict_proba_row(x.row(i));
            out.row_mut(i).copy_from_slice(&p);
        }
        out
    }

    /// Hard predictions (argmax of the probability vector).
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows())
            .map(|i| argmax(&self.predict_proba_row(x.row(i))))
            .collect()
    }
}

/// The input checks [`Classifier::fit`] promises: one label per row, at
/// least one row and one class, and every label below `n_classes`.
pub fn validate_fit(rows: usize, y: &[usize], n_classes: usize) -> Result<(), MlError> {
    if rows != y.len() {
        return Err(MlError::ShapeMismatch {
            rows,
            labels: y.len(),
        });
    }
    if rows == 0 {
        return Err(MlError::EmptyTrainingSet);
    }
    if n_classes == 0 {
        return Err(MlError::InvalidParam {
            param: "n_classes",
            why: "must be at least 1".into(),
        });
    }
    if let Some(&bad) = y.iter().find(|&&c| c >= n_classes) {
        return Err(MlError::LabelOutOfRange {
            label: bad,
            n_classes,
        });
    }
    Ok(())
}
