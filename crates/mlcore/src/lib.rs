//! # pml-mlcore
//!
//! From-scratch classical machine learning for the PML-MPI reproduction —
//! the scikit-learn 1.2.2 stand-in (§V-C of the paper), cut to what the
//! shipped model needs to train and load.
//!
//! [`forest::RandomForest`] is the model the paper ships, behind the
//! [`classifier::Classifier`] trait. [`tree`] grows its Gini CART trees
//! (with Gini-decrease feature importances) and the MSE regression trees
//! of Table II's gradient boosting, whose learners, metrics and
//! cross-validation live in `pml-bench`. The forest serializes to JSON
//! ([`RandomForest::write_json`] / [`RandomForest::from_json`]) — that is
//! how the "pre-trained model shipped with the MPI library" workflow is
//! realized.

pub mod binned;
pub mod classifier;
pub mod compiled;
pub mod dataset;
pub mod error;
pub mod forest;
pub mod matrix;
pub mod tree;
pub mod verify;

pub use binned::BinnedMatrix;
pub use classifier::Classifier;
pub use compiled::{CompileError, CompiledForest, MAX_EDGES, MAX_UNROLLED_DEPTH};
pub use dataset::Dataset;
pub use error::MlError;
pub use forest::{ForestParams, RandomForest};
pub use matrix::Matrix;
pub use tree::{DecisionTree, MaxFeatures, RegressionTree, TreeParams, TreeScratch};
pub use verify::{ForestIssue, ForestLoadError, StructureIssue};
