//! Labelled dataset: a feature matrix, integer class labels, and metadata.

use crate::error::MlError;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A classification dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    pub x: Matrix,
    /// Class label per row, in `0..n_classes`.
    pub y: Vec<usize>,
    pub n_classes: usize,
    /// Column names (for feature-importance reports).
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Validated construction; rejects shape mismatches and labels outside
    /// `0..n_classes`. This is the entry point for data that originates
    /// outside the program (files, CLI input).
    pub fn try_new(
        x: Matrix,
        y: Vec<usize>,
        n_classes: usize,
        feature_names: Vec<String>,
    ) -> Result<Self, MlError> {
        if x.rows() != y.len() {
            return Err(MlError::ShapeMismatch {
                rows: x.rows(),
                labels: y.len(),
            });
        }
        if x.cols() != feature_names.len() {
            return Err(MlError::FeatureCountMismatch {
                expected: feature_names.len(),
                got: x.cols(),
            });
        }
        if let Some(&bad) = y.iter().find(|&&c| c >= n_classes) {
            return Err(MlError::LabelOutOfRange {
                label: bad,
                n_classes,
            });
        }
        Ok(Dataset {
            x,
            y,
            n_classes,
            feature_names,
        })
    }

    /// Construction for literals whose invariants hold at the call site
    /// (tests, generated data) — debug builds assert them. Data that
    /// originates outside the program goes through [`Dataset::try_new`].
    pub fn new(x: Matrix, y: Vec<usize>, n_classes: usize, feature_names: Vec<String>) -> Self {
        debug_assert_eq!(x.rows(), y.len(), "one label per row");
        debug_assert_eq!(x.cols(), feature_names.len(), "one name per feature column");
        debug_assert!(y.iter().all(|&c| c < n_classes), "label out of range");
        Dataset {
            x,
            y,
            n_classes,
            feature_names,
        }
    }

    pub fn len(&self) -> usize {
        self.y.len()
    }

    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    pub fn n_features(&self) -> usize {
        self.x.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            Matrix::from_rows([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]),
            vec![0, 1, 1],
            2,
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn construction_and_counts() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_range_checked() {
        Dataset::new(Matrix::from_rows([[0.0]]), vec![3], 2, vec!["a".into()]);
    }

    #[test]
    fn try_new_rejects_out_of_range_label() {
        let err =
            Dataset::try_new(Matrix::from_rows([[0.0]]), vec![3], 2, vec!["a".into()]).unwrap_err();
        assert_eq!(
            err,
            MlError::LabelOutOfRange {
                label: 3,
                n_classes: 2
            }
        );
    }
}
