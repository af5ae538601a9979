//! Typed structural verification for deserialized model artifacts.
//!
//! The SoA tree layout (`tree.rs`) trades per-node enums for parallel
//! arrays, which means a hand-edited or bit-rotted artifact can encode
//! out-of-bounds children, reference cycles, dangling leaf payloads, or
//! probability vectors that are not distributions — none of which the
//! parser alone can rule out without re-walking the whole structure.
//! [`StructureIssue`] enumerates every invariant a well-formed tree
//! ensemble satisfies; `DecisionTree::verify` and
//! [`crate::RandomForest::verify`] prove them before inference ever
//! descends a node. Deserialization itself only enforces parse-shape
//! consistency — run `verify` on anything that crossed a trust boundary.

use std::fmt;

/// A structural invariant violated by a deserialized tree ensemble. Every
/// variant names the offending node/feature so the report points at the
/// corruption, not just the artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum StructureIssue {
    /// Parallel arrays disagree on the node count.
    Shape(String),
    /// A tree with zero nodes cannot be descended.
    Empty,
    /// A split references a child index past the node array.
    ChildOutOfBounds {
        node: usize,
        child: usize,
        n_nodes: usize,
    },
    /// A split references a child at or before itself — a cycle or a
    /// violation of the parent-before-child (pre-order) numbering.
    OrderViolation { node: usize, child: usize },
    /// A non-root node is never referenced by any split.
    UnreachableNode { node: usize },
    /// A node is referenced by more than one split (shared subtree / DAG).
    MultiParent { node: usize },
    /// A leaf's unused child slot is not the zero sentinel.
    BadLeafSentinel { node: usize },
    /// A leaf's arena offset breaks the contiguous in-order layout.
    ArenaMismatch {
        node: usize,
        offset: usize,
        expected: usize,
    },
    /// The leaf arena is shorter or longer than the leaves require.
    ArenaLength { expected: usize, actual: usize },
    /// A classification leaf's probabilities do not sum to 1.
    NotSimplex { node: usize, sum: f64 },
    /// A classification leaf holds a probability outside `[0, 1]`.
    LeafValueOutOfRange { node: usize, value: f64 },
    /// A split tests a feature past the tree's feature count.
    FeatureOutOfRange {
        node: usize,
        feature: usize,
        n_features: usize,
    },
    /// A tree's class count disagrees with its ensemble.
    ClassCount { expected: usize, actual: usize },
    /// A tree's importance vector disagrees with the feature count.
    ImportanceLength { expected: usize, actual: usize },
    /// A feature is split on more distinct thresholds across the ensemble
    /// than the compiled kernel's u8 codes can name.
    ThresholdBudget { feature: usize, distinct: usize },
    /// A split threshold is NaN or infinite and cannot be quantized.
    NonFiniteThreshold { node: usize },
}

impl fmt::Display for StructureIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureIssue::Shape(detail) => write!(f, "inconsistent node arrays: {detail}"),
            StructureIssue::Empty => write!(f, "empty node array"),
            StructureIssue::ChildOutOfBounds {
                node,
                child,
                n_nodes,
            } => write!(
                f,
                "split {node} references child {child}, out of range for {n_nodes} nodes"
            ),
            StructureIssue::OrderViolation { node, child } => write!(
                f,
                "split {node} references child {child}: children must follow their \
                 parent (cycle or order violation)"
            ),
            StructureIssue::UnreachableNode { node } => {
                write!(f, "node {node} is unreachable from the root")
            }
            StructureIssue::MultiParent { node } => {
                write!(f, "node {node} is referenced by more than one split")
            }
            StructureIssue::BadLeafSentinel { node } => {
                write!(f, "leaf {node} has a nonzero unused child slot")
            }
            StructureIssue::ArenaMismatch {
                node,
                offset,
                expected,
            } => write!(
                f,
                "leaf {node} points at arena offset {offset}, expected {expected} \
                 (leaf payloads must be contiguous in node order)"
            ),
            StructureIssue::ArenaLength { expected, actual } => write!(
                f,
                "leaf arena holds {actual} values, leaves require {expected}"
            ),
            StructureIssue::NotSimplex { node, sum } => {
                write!(f, "leaf {node} probabilities sum to {sum}, expected 1")
            }
            StructureIssue::LeafValueOutOfRange { node, value } => {
                write!(f, "leaf {node} holds probability {value} outside [0, 1]")
            }
            StructureIssue::FeatureOutOfRange {
                node,
                feature,
                n_features,
            } => write!(
                f,
                "split {node} tests feature {feature}, out of range for {n_features} features"
            ),
            StructureIssue::ClassCount { expected, actual } => {
                write!(f, "tree has {actual} classes, ensemble expects {expected}")
            }
            StructureIssue::ImportanceLength { expected, actual } => write!(
                f,
                "importance vector has {actual} entries, expected {expected}"
            ),
            StructureIssue::ThresholdBudget { feature, distinct } => write!(
                f,
                "feature {feature} is split on {distinct} distinct thresholds, more \
                 than the {} the compiled u8 codes can name",
                crate::compiled::MAX_EDGES
            ),
            StructureIssue::NonFiniteThreshold { node } => {
                write!(f, "split {node} has a non-finite threshold")
            }
        }
    }
}

impl std::error::Error for StructureIssue {}

/// A [`StructureIssue`] located within an ensemble: `tree` is the index of
/// the offending tree, or `None` for ensemble-level metadata violations.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestIssue {
    pub tree: Option<usize>,
    pub issue: StructureIssue,
}

impl fmt::Display for ForestIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tree {
            Some(t) => write!(f, "tree {t}: {}", self.issue),
            None => write!(f, "{}", self.issue),
        }
    }
}

impl std::error::Error for ForestIssue {}

/// Why loading a serialized forest through
/// [`crate::RandomForest::from_json`] failed: the JSON never parsed, or it
/// parsed into a structurally corrupt ensemble.
#[derive(Debug, Clone, PartialEq)]
pub enum ForestLoadError {
    Parse(String),
    Structure(ForestIssue),
}

impl fmt::Display for ForestLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestLoadError::Parse(e) => write!(f, "model JSON failed to parse: {e}"),
            ForestLoadError::Structure(issue) => {
                write!(f, "model failed structural verification: {issue}")
            }
        }
    }
}

impl std::error::Error for ForestLoadError {}
