//! Error type for the ML layer: everything a caller-supplied dataset or
//! hyperparameter set can get wrong, surfaced as values instead of panics.

use crate::compiled::CompileError;
use std::fmt;

/// Why a fit / split / search request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// Fit called with zero rows.
    EmptyTrainingSet,
    /// Feature matrix and label vector disagree on the row count.
    ShapeMismatch { rows: usize, labels: usize },
    /// A label is outside `0..n_classes`.
    LabelOutOfRange { label: usize, n_classes: usize },
    /// Column count does not match the expected feature count.
    FeatureCountMismatch { expected: usize, got: usize },
    /// A hyperparameter fails validation.
    InvalidParam { param: &'static str, why: String },
    /// Grid search called with an empty candidate list.
    NoCandidates,
    /// Prediction requested from a model that was never fitted.
    NotFitted,
    /// The fitted forest cannot be compiled for inference.
    Compile(CompileError),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyTrainingSet => write!(f, "cannot fit on an empty dataset"),
            MlError::ShapeMismatch { rows, labels } => {
                write!(
                    f,
                    "one label per row required: {rows} rows but {labels} labels"
                )
            }
            MlError::LabelOutOfRange { label, n_classes } => {
                write!(f, "label {label} out of range for {n_classes} classes")
            }
            MlError::FeatureCountMismatch { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            MlError::InvalidParam { param, why } => write!(f, "invalid `{param}`: {why}"),
            MlError::NoCandidates => write!(f, "grid search needs at least one candidate"),
            MlError::NotFitted => write!(f, "model has not been fitted"),
            MlError::Compile(e) => write!(f, "fitted forest cannot serve predictions: {e}"),
        }
    }
}

impl std::error::Error for MlError {}
