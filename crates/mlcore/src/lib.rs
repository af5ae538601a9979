//! # pml-mlcore
//!
//! From-scratch classical machine learning for the PML-MPI reproduction —
//! the scikit-learn 1.2.2 stand-in (§V-C of the paper).
//!
//! Estimators: [`forest::RandomForest`] (the model the paper ships),
//! [`gboost::GradientBoosting`], [`knn::Knn`], and [`svm::LinearSvm`], all
//! behind the [`classifier::Classifier`] trait. [`tree`] holds the CART
//! building blocks (Gini classification + MSE regression trees, with
//! Gini-decrease feature importances). [`metrics`] and [`model_selection`]
//! provide accuracy / macro one-vs-rest ROC AUC, stratified k-fold CV, and
//! grid search. The forest serializes to JSON ([`RandomForest::write_json`] /
//! [`RandomForest::from_json`]) — that is how the "pre-trained model
//! shipped with the MPI library" workflow is realized.

#![deny(rust_2018_idioms, missing_debug_implementations)]
#![deny(clippy::dbg_macro, clippy::todo)]
pub mod binned;
pub mod classifier;
pub mod compiled;
pub mod dataset;
pub mod error;
pub mod forest;
pub mod gboost;
pub mod knn;
pub mod matrix;
pub mod metrics;
pub mod model_selection;
pub mod svm;
pub mod tree;
pub mod verify;

pub use binned::BinnedMatrix;
pub use classifier::Classifier;
pub use compiled::{CompileError, CompiledForest, MAX_EDGES, MAX_UNROLLED_DEPTH};
pub use dataset::Dataset;
pub use error::MlError;
pub use forest::{ForestParams, RandomForest};
pub use gboost::{GBoostParams, GradientBoosting};
pub use knn::{Knn, KnnParams};
pub use matrix::Matrix;
pub use svm::{LinearSvm, SvmParams};
pub use tree::{DecisionTree, MaxFeatures, RegressionTree, TreeParams, TreeScratch};
pub use verify::{ForestIssue, ForestLoadError, StructureIssue};
