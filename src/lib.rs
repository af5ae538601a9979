//! PML-MPI — a pre-trained ML framework for MPI collective algorithm
//! selection (paper reproduction).
//!
//! This root crate is a facade over the workspace: it re-exports the
//! sub-crates under short names plus the handful of types most programs
//! need, so `pml_mpi::SelectionEngine` is the only import a consumer
//! starts with. The heavy lifting lives in:
//!
//! - [`simnet`] — the analytical cluster/network simulator (hardware specs
//!   and the communication cost model);
//! - [`collectives`] — collective algorithms, schedules, and the
//!   simulated executor;
//! - [`mlcore`] — the from-scratch ML stack (Random Forest & friends);
//! - [`clusters`] — the 18-cluster zoo and micro-benchmark dataset
//!   generation;
//! - [`core`] — feature extraction, training pipeline, selectors, tuning
//!   tables, and the [`SelectionEngine`] facade;
//! - [`obs`] — structured tracing and the metrics registry behind
//!   `--trace` / `--metrics-out`;
//! - [`apps`] — mini-app communication patterns used for end-to-end
//!   evaluation;
//! - [`serve`] — the selection path as a daemon: NDJSON over a Unix
//!   domain socket, request batching, `pml-mpi serve` / `loadgen`.
//!
//! # Quick start
//!
//! ```no_run
//! use pml_mpi::{Collective, EngineConfig, JobConfig, SelectionEngine};
//!
//! let mut engine = SelectionEngine::new(EngineConfig::default());
//! let algo = engine
//!     .predict("Frontera", Collective::Allgather, JobConfig::new(16, 56, 4096))
//!     .expect("known cluster");
//! println!("picked {algo}");
//! ```
//!
//! See `examples/quickstart.rs` for the full offline → online lifecycle
//! and `src/main.rs` for the CLI that wraps it.

pub use pml_apps as apps;
pub use pml_clusters as clusters;
pub use pml_collectives as collectives;
pub use pml_core as core;
pub use pml_mlcore as mlcore;
pub use pml_obs as obs;
pub use pml_serve as serve;
pub use pml_simnet as simnet;

// The flat API: the types a typical consumer touches, one import away.
pub use pml_clusters::{by_name, zoo, ClusterEntry, DatagenConfig, TuningRecord};
pub use pml_collectives::{Algorithm, Collective};
pub use pml_core::{
    applicable_or_fallback, detect_node, AlgorithmSelector, ArtifactKind, EngineConfig,
    FallbackDepth, JobConfig, MlSelector, MvapichDefault, OpenMpiDefault, OracleSelector, PmlError,
    PretrainedModel, RandomSelector, SelectionEngine, TrainConfig, Tuner, TuningTable, VerifyError,
    VerifyErrorKind, FEATURE_NAMES,
};
pub use pml_simnet::NodeSpec;
