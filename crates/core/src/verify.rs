//! pml-verify: static structural verification of shipped artifacts.
//!
//! The deployment story ships two JSON artifacts to clusters the trainer
//! never sees — a pre-trained model and the tuning tables generated from
//! it — and the MPI library consumes them blindly at startup. This module
//! proves their well-formedness *without executing them*: no descent, no
//! lookup, no inference. Checks:
//!
//! * **Models** — every tree's SoA store is well-formed (children
//!   in-bounds, parent-before-child order ⇒ acyclic, contiguous leaf
//!   arena, leaf sentinel slots zeroed, per-leaf probability simplex
//!   within 1e-6; see `pml_mlcore::verify`), ensemble metadata is
//!   consistent (class/feature counts, selected-feature indices), the
//!   forest compiles into its quantized inference twin (finite thresholds
//!   within the u8 code budget — the one step that builds rather than
//!   only inspects, and the result stays cached for prediction), and
//!   every class index maps to a real [`Algorithm`] of the model's
//!   collective. The text is read once, straight into the forest's arrays
//!   (`PretrainedModel::read_json`); nothing is trusted until this pass
//!   has run over what that produced.
//! * **Tuning tables** — every entry's algorithm belongs to the table's
//!   collective, the (nodes × ppn × msg) grid is total (no missing or
//!   duplicate cells), and the static fallback chain terminates in an
//!   algorithm applicable at each cell's world size.
//!
//! Every failure is a typed [`VerifyError`] carrying the artifact path.
//! [`crate::PretrainedModel::from_json`] and [`crate::Tuner::from_dir`]
//! route through this module, so corrupt inputs degrade into errors (or
//! skip-warnings) instead of indexing out of bounds mid-collective.

use crate::error::PmlError;
use crate::features::N_FEATURES;
use crate::pipeline::PretrainedModel;
use crate::selectors::{applicable_or_fallback, AlgorithmSelector, JobConfig, MvapichDefault};
use crate::tuning_table::TuningTable;
use pml_collectives::{Algorithm, Collective};
use pml_mlcore::{ForestIssue, StructureIssue};
use pml_obs::Counter;
use std::fmt;
use std::path::Path;

/// Artifacts rejected by the structural verifier (any entry point).
static VERIFY_ERRORS: Counter = Counter::new("verify.errors");
/// Artifacts accepted by the structural verifier (any entry point).
static VERIFY_PASSED: Counter = Counter::new("verify.passed");

/// What kind of artifact a verified file turned out to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    Model,
    TuningTable,
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactKind::Model => write!(f, "model"),
            ArtifactKind::TuningTable => write!(f, "tuning table"),
        }
    }
}

/// Why an artifact failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyErrorKind {
    /// The bytes never parsed into the artifact's schema.
    Malformed(String),
    /// A structural violation inside tree `tree` of the model's forest.
    Tree { tree: usize, issue: StructureIssue },
    /// An ensemble-level violation of the model's forest.
    Forest(StructureIssue),
    /// Model metadata inconsistent with the feature schema.
    Model(String),
    /// A model class index with no corresponding algorithm.
    UnknownClass { class: usize, n_algorithms: usize },
    /// A tuning table with no entries cannot answer any query.
    EmptyTable,
    /// Two table entries for the same grid cell.
    DuplicateCell { nodes: u32, ppn: u32, msg_size: u64 },
    /// A grid cell missing from the node×ppn×msg cross product.
    IncompleteGrid { nodes: u32, ppn: u32, msg_size: u64 },
    /// A table entry's algorithm belongs to a different collective.
    CrossCollective {
        expected: Collective,
        got: Collective,
    },
    /// The static fallback chain cannot reach an applicable algorithm
    /// for this cell.
    FallbackStuck {
        nodes: u32,
        ppn: u32,
        algorithm: Algorithm,
    },
    /// The JSON parsed but matches no known artifact schema.
    UnrecognizedArtifact,
}

impl fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyErrorKind::Malformed(e) => write!(f, "malformed artifact: {e}"),
            VerifyErrorKind::Tree { tree, issue } => write!(f, "forest tree {tree}: {issue}"),
            VerifyErrorKind::Forest(issue) => write!(f, "forest: {issue}"),
            VerifyErrorKind::Model(why) => write!(f, "model metadata: {why}"),
            VerifyErrorKind::UnknownClass {
                class,
                n_algorithms,
            } => write!(
                f,
                "class {class} has no algorithm (collective defines {n_algorithms})"
            ),
            VerifyErrorKind::EmptyTable => write!(f, "tuning table has no entries"),
            VerifyErrorKind::DuplicateCell {
                nodes,
                ppn,
                msg_size,
            } => write!(
                f,
                "duplicate tuning-table cell ({nodes} nodes, ppn {ppn}, {msg_size} B)"
            ),
            VerifyErrorKind::IncompleteGrid {
                nodes,
                ppn,
                msg_size,
            } => write!(
                f,
                "tuning-table grid missing cell ({nodes} nodes, ppn {ppn}, {msg_size} B)"
            ),
            VerifyErrorKind::CrossCollective { expected, got } => {
                write!(f, "entry for {got} in a {expected} table")
            }
            VerifyErrorKind::FallbackStuck {
                nodes,
                ppn,
                algorithm,
            } => write!(
                f,
                "fallback chain from {algorithm} cannot reach an applicable \
                 algorithm at {nodes} nodes × ppn {ppn}"
            ),
            VerifyErrorKind::UnrecognizedArtifact => {
                write!(f, "JSON matches no known artifact schema")
            }
        }
    }
}

impl std::error::Error for VerifyErrorKind {}

/// A [`VerifyErrorKind`] located at an artifact path (or `<memory>` for
/// artifacts verified before they ever touch disk).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    pub artifact: String,
    pub kind: VerifyErrorKind,
}

impl VerifyError {
    pub fn new(artifact: impl Into<String>, kind: VerifyErrorKind) -> Self {
        VerifyError {
            artifact: artifact.into(),
            kind,
        }
    }

    /// Locate an error in an artifact that only exists in memory.
    pub fn inline(kind: VerifyErrorKind) -> Self {
        VerifyError::new("<memory>", kind)
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.artifact == "<memory>" {
            // The caller already names the source (e.g. the file it read
            // the JSON from); a placeholder location would only add noise.
            self.kind.fmt(f)
        } else {
            write!(f, "{}: {}", self.artifact, self.kind)
        }
    }
}

impl std::error::Error for VerifyError {}

fn forest_issue(e: ForestIssue) -> VerifyErrorKind {
    match e.tree {
        Some(tree) => VerifyErrorKind::Tree {
            tree,
            issue: e.issue,
        },
        None => VerifyErrorKind::Forest(e.issue),
    }
}

/// Structurally verify a parsed model: reading checks parse shape only, so
/// this is where every invariant prediction relies on is proved.
pub fn verify_model(model: &PretrainedModel) -> Result<(), VerifyErrorKind> {
    let forest = model.forest();
    forest.verify().map_err(forest_issue)?;
    let selected = model.selected_features();
    if selected.len() != forest.n_features() {
        return Err(VerifyErrorKind::Model(format!(
            "{} selected features but the forest consumes {}",
            selected.len(),
            forest.n_features()
        )));
    }
    for w in selected.windows(2) {
        if w[0] >= w[1] {
            return Err(VerifyErrorKind::Model(format!(
                "selected features must be strictly increasing, got {} then {}",
                w[0], w[1]
            )));
        }
    }
    if let Some(&bad) = selected.iter().find(|&&i| i >= N_FEATURES) {
        return Err(VerifyErrorKind::Model(format!(
            "selected feature {bad} out of range (schema has {N_FEATURES})"
        )));
    }
    if model.full_importances().len() != N_FEATURES {
        return Err(VerifyErrorKind::Model(format!(
            "{} full importances, schema has {N_FEATURES}",
            model.full_importances().len()
        )));
    }
    let n_algorithms = model.collective.algo_count();
    for class in 0..forest.n_classes() {
        if Algorithm::from_index(model.collective, class).is_none() {
            return Err(VerifyErrorKind::UnknownClass {
                class,
                n_algorithms,
            });
        }
    }
    Ok(())
}

/// Verify a tuning table: collective consistency, grid totality (every
/// node×ppn×msg cross-product cell present exactly once), and fallback
/// termination — each cell's algorithm must reach something applicable at
/// that cell's world size through the static fallback chain.
pub fn verify_table(table: &TuningTable) -> Result<(), VerifyErrorKind> {
    if table.is_empty() {
        return Err(VerifyErrorKind::EmptyTable);
    }
    let mut nodes_axis = Vec::new();
    let mut ppn_axis = Vec::new();
    let mut msg_axis = Vec::new();
    let mut cells = std::collections::BTreeSet::new();
    for e in table.entries() {
        if e.algorithm.collective() != table.collective {
            return Err(VerifyErrorKind::CrossCollective {
                expected: table.collective,
                got: e.algorithm.collective(),
            });
        }
        if e.nodes == 0 || e.ppn == 0 {
            return Err(VerifyErrorKind::Malformed(format!(
                "cell ({}, {}, {}) has a zero dimension",
                e.nodes, e.ppn, e.msg_size
            )));
        }
        if (e.nodes as u64) * (e.ppn as u64) > u32::MAX as u64 {
            return Err(VerifyErrorKind::Malformed(format!(
                "cell ({}, {}, {}) world size overflows u32",
                e.nodes, e.ppn, e.msg_size
            )));
        }
        if !cells.insert((e.nodes, e.ppn, e.msg_size)) {
            return Err(VerifyErrorKind::DuplicateCell {
                nodes: e.nodes,
                ppn: e.ppn,
                msg_size: e.msg_size,
            });
        }
        nodes_axis.push(e.nodes);
        ppn_axis.push(e.ppn);
        msg_axis.push(e.msg_size);
    }
    nodes_axis.sort_unstable();
    nodes_axis.dedup();
    ppn_axis.sort_unstable();
    ppn_axis.dedup();
    msg_axis.sort_unstable();
    msg_axis.dedup();
    for &n in &nodes_axis {
        for &p in &ppn_axis {
            for &m in &msg_axis {
                if !cells.contains(&(n, p, m)) {
                    return Err(VerifyErrorKind::IncompleteGrid {
                        nodes: n,
                        ppn: p,
                        msg_size: m,
                    });
                }
            }
        }
    }
    for e in table.entries() {
        let world = e.nodes * e.ppn;
        let job = JobConfig::new(e.nodes, e.ppn, e.msg_size as usize);
        let mut algo = applicable_or_fallback(e.algorithm, world);
        if !algo.supports(world) {
            algo = MvapichDefault.select(table.collective, job);
        }
        if !algo.supports(world) || algo.collective() != table.collective {
            return Err(VerifyErrorKind::FallbackStuck {
                nodes: e.nodes,
                ppn: e.ppn,
                algorithm: e.algorithm,
            });
        }
    }
    Ok(())
}

/// Parse and verify a model artifact from JSON. Verification compiles the
/// forest's quantized inference twin, so every trust-boundary load path
/// — `PretrainedModel::from_json`, `Tuner::from_dir`, the serve daemon —
/// starts batch prediction without a first-call stall.
pub fn verify_model_json(s: &str) -> Result<PretrainedModel, VerifyErrorKind> {
    let mut model =
        PretrainedModel::read_json(s).map_err(|e| VerifyErrorKind::Malformed(e.to_string()))?;
    model.migrate_features();
    verify_model(&model)?;
    Ok(model)
}

/// Parse and verify a tuning-table artifact from JSON.
pub fn verify_table_json(s: &str) -> Result<TuningTable, VerifyErrorKind> {
    let table: TuningTable =
        serde_json::from_str(s).map_err(|e| VerifyErrorKind::Malformed(e.to_string()))?;
    verify_table(&table)?;
    Ok(table)
}

/// Every `*.json` file of `dir` that `verify` accepts, and a `skipping
/// {what} {path}: {why}` warning for each it could not read or `verify`
/// turned down: a damaged artifact costs that artifact, and only an
/// unreadable `dir` is an error.
pub fn load_verified_dir<T>(
    dir: &Path,
    what: &str,
    verify: impl Fn(&str) -> Result<T, VerifyErrorKind>,
) -> Result<(Vec<T>, Vec<String>), PmlError> {
    let io_err = |source| PmlError::Io {
        path: dir.to_path_buf(),
        source,
    };
    let (mut loaded, mut warnings) = (Vec::new(), Vec::new());
    for entry in std::fs::read_dir(dir).map_err(io_err)? {
        let path = entry.map_err(io_err)?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read failed: {e}"));
            match text.and_then(|text| verify(&text).map_err(|e| e.to_string())) {
                Ok(artifact) => loaded.push(artifact),
                Err(e) => warnings.push(format!("skipping {what} {}: {e}", path.display())),
            }
        }
    }
    Ok((loaded, warnings))
}

/// Sniff the artifact kind from the document's top-level keys and run the
/// matching verifier — the engine behind `pml verify <path>`.
pub fn verify_artifact_str(s: &str) -> Result<ArtifactKind, VerifyErrorKind> {
    let sniff = || -> Result<ArtifactKind, VerifyErrorKind> {
        // Keys only: every value is stepped over (and held to the grammar),
        // none is built — the matching verifier reads the document once.
        let mut keys = Vec::new();
        let mut r = serde_json::Reader::new(s);
        if r.next_byte() == Some(b'{') {
            r.object(|r, key| {
                keys.push(key);
                r.skip_value()
            })
        } else {
            r.skip_value()
        }
        .and_then(|()| r.end())
        .map_err(|e| VerifyErrorKind::Malformed(e.to_string()))?;
        let has = |key: &str| keys.iter().any(|k| k == key);
        if has("forest") && has("collective") {
            verify_model_json(s).map(|_| ArtifactKind::Model)
        } else if has("entries") && has("cluster") {
            verify_table_json(s).map(|_| ArtifactKind::TuningTable)
        } else {
            Err(VerifyErrorKind::UnrecognizedArtifact)
        }
    };
    let out = sniff();
    match &out {
        Ok(_) => VERIFY_PASSED.inc(),
        Err(_) => VERIFY_ERRORS.inc(),
    }
    out
}

/// Read, sniff, and verify an artifact file, locating any failure at its
/// path.
pub fn verify_artifact_file(path: &Path) -> Result<ArtifactKind, VerifyError> {
    let located = |kind| VerifyError::new(path.display().to_string(), kind);
    let text = std::fs::read_to_string(path)
        .map_err(|e| located(VerifyErrorKind::Malformed(format!("read failed: {e}"))))?;
    verify_artifact_str(&text).map_err(located)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::AlltoallAlgo;

    fn total_table() -> TuningTable {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        for (n, p, m, a) in [
            (2, 8, 64, AlltoallAlgo::Bruck),
            (2, 8, 65536, AlltoallAlgo::Pairwise),
            (16, 8, 64, AlltoallAlgo::ScatterDest),
            (16, 8, 65536, AlltoallAlgo::Pairwise),
        ] {
            t.insert(n, p, m, Algorithm::Alltoall(a)).unwrap();
        }
        t
    }

    /// Mutate one field of a table's JSON document tree.
    fn mutate_json(
        t: &TuningTable,
        f: impl FnOnce(&mut Vec<(String, serde_json::JsonValue)>),
    ) -> String {
        let text = serde_json::to_string(t).unwrap();
        let mut v: serde_json::JsonValue = serde_json::from_str(&text).unwrap();
        match &mut v {
            serde_json::JsonValue::Object(pairs) => f(pairs),
            other => panic!("table serialized as non-object: {other:?}"),
        }
        serde_json::to_string(&v).unwrap()
    }

    #[test]
    fn total_table_verifies() {
        assert_eq!(verify_table(&total_table()), Ok(()));
    }

    #[test]
    fn empty_table_rejected() {
        let t = TuningTable::new("X", Collective::Alltoall);
        assert_eq!(verify_table(&t), Err(VerifyErrorKind::EmptyTable));
    }

    #[test]
    fn incomplete_grid_rejected() {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        for (n, p, m) in [(2, 8, 64), (2, 8, 65536), (16, 8, 64)] {
            t.insert(n, p, m, Algorithm::Alltoall(AlltoallAlgo::Bruck))
                .unwrap();
        }
        assert_eq!(
            verify_table(&t),
            Err(VerifyErrorKind::IncompleteGrid {
                nodes: 16,
                ppn: 8,
                msg_size: 65536,
            })
        );
    }

    #[test]
    fn zero_dimension_rejected() {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(0, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Bruck))
            .unwrap();
        assert!(matches!(
            verify_table(&t),
            Err(VerifyErrorKind::Malformed(_))
        ));
    }

    #[test]
    fn duplicate_cell_rejected_from_json() {
        let json = mutate_json(&total_table(), |pairs| {
            for (k, v) in pairs {
                if k == "entries" {
                    if let serde_json::JsonValue::Array(items) = v {
                        let first = items[0].clone();
                        items.push(first);
                    }
                }
            }
        });
        assert!(matches!(
            verify_table_json(&json),
            Err(VerifyErrorKind::DuplicateCell {
                nodes: 2,
                ppn: 8,
                msg_size: 64
            })
        ));
    }

    #[test]
    fn cross_collective_rejected_from_json() {
        // Flip the table-level collective; the Alltoall entries no longer
        // belong. verify_table_json parses with plain serde, so this must be
        // caught by the verifier itself.
        let json = mutate_json(&total_table(), |pairs| {
            for (k, v) in pairs {
                if k == "collective" {
                    *v = serde_json::JsonValue::Str("Allgather".into());
                }
            }
        });
        assert_eq!(
            verify_table_json(&json).unwrap_err(),
            VerifyErrorKind::CrossCollective {
                expected: Collective::Allgather,
                got: Collective::Alltoall,
            }
        );
    }

    #[test]
    fn artifact_sniffing() {
        let table_json = serde_json::to_string(&total_table()).unwrap();
        assert_eq!(
            verify_artifact_str(&table_json),
            Ok(ArtifactKind::TuningTable)
        );
        assert!(matches!(
            verify_artifact_str("{\"a\": 1}"),
            Err(VerifyErrorKind::UnrecognizedArtifact)
        ));
        assert!(matches!(
            verify_artifact_str("[1, 2]"),
            Err(VerifyErrorKind::UnrecognizedArtifact)
        ));
        assert!(matches!(
            verify_artifact_str("{nope"),
            Err(VerifyErrorKind::Malformed(_))
        ));
    }
}
